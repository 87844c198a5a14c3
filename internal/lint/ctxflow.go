package lint

import (
	"go/ast"
	"go/types"
)

// CtxFlow checks the project's cancellation discipline — the contract behind
// iseserve's checkpoint/cancel semantics and the ctx-first entry points
// threaded through flow/core/parallel. Three rules:
//
//  1. A function that receives a context must forward it: passing
//     context.Background()/TODO() to a callee, or calling F when a
//     ctx-accepting variant FCtx exists in the same scope, breaks the
//     cancellation chain from that point down.
//  2. context.Background()/TODO() belongs in package main (process roots)
//     and tests. Anywhere else it needs a //lint:ignore ctxflow <reason> —
//     compat wrappers and lifetime roots are legitimate, but each is a
//     reviewed decision.
//  3. An unbounded `for` loop inside a goroutine reachable from the service
//     layer must be cancellable: its body has to reach a ctx.Done()/
//     ctx.Err() check, either directly or through a callee whose summary
//     checks (the Manager.runner -> next() select shape). A goroutine that
//     spins forever keeps the daemon from draining.
//
// Rules 1 and 2 are call-site local over the shared summaries; rule 3 uses
// the call graph twice — reachability from the service roots, and the
// transitive checks-Done bit.
var CtxFlow = &Analyzer{
	Name:       "ctxflow",
	Doc:        "checks context forwarding, context.Background() scope, and goroutine loop cancellation",
	RunProgram: runCtxFlow,
}

func runCtxFlow(p *ProgramPass) {
	prog := p.Prog
	inService := serviceReachable(prog, p.Config.serviceRoots())
	for _, fi := range prog.funcList {
		isMain := fi.Pkg.Types != nil && fi.Pkg.Types.Name() == "main"
		// Rule 2 (with the rule-1 message when a ctx was available).
		for _, pos := range fi.Summary.BackgroundCalls {
			switch {
			case fi.Summary.HasCtx:
				p.Reportf(pos, "%s receives a context but calls context.Background()/TODO(); forward the caller's ctx", fi.Name())
			case !isMain:
				p.Reportf(pos, "context.Background()/TODO() outside package main breaks the cancellation chain; plumb a caller context or suppress with a reason")
			}
		}
		if fi.Decl.Body == nil {
			continue
		}
		if fi.Summary.HasCtx {
			checkCtxVariants(p, fi)
		}
		// Rule 3: goroutines spawned here, if the spawner is in or
		// reachable from the service layer.
		if inService[fi] {
			checkGoroutineLoops(p, fi)
		}
	}
}

// serviceRoots returns the configured service-layer root packages.
func (c *Config) serviceRoots() []string {
	if c != nil && c.ServiceRoots != nil {
		return c.ServiceRoots
	}
	return DefaultServiceRoots
}

// serviceReachable marks every function declared in, or reachable through
// the call graph from, the service-root packages.
func serviceReachable(prog *Program, roots []string) map[*FuncInfo]bool {
	isRoot := map[string]bool{}
	for _, r := range roots {
		isRoot[r] = true
	}
	reach := map[*FuncInfo]bool{}
	var queue []*FuncInfo
	for _, fi := range prog.funcList {
		if isRoot[fi.Pkg.Path] {
			reach[fi] = true
			queue = append(queue, fi)
		}
	}
	for len(queue) > 0 {
		fi := queue[0]
		queue = queue[1:]
		for _, cs := range fi.Calls {
			for _, callee := range cs.Callees {
				ci := prog.Funcs[callee]
				if ci == nil || reach[ci] {
					continue
				}
				reach[ci] = true
				queue = append(queue, ci)
			}
		}
	}
	return reach
}

// checkCtxVariants flags calls to F from a ctx-holding function when a
// ctx-accepting sibling FCtx exists — the caller is dropping its context on
// the floor one call too early.
func checkCtxVariants(p *ProgramPass, fi *FuncInfo) {
	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		callees := p.Prog.resolveCallees(fi.Pkg, call)
		if len(callees) != 1 {
			return true
		}
		callee := callees[0]
		if hasCtxParam(callee) || callee.Pkg() == nil {
			return true
		}
		variant := ctxVariantOf(callee)
		if variant == nil {
			return true
		}
		p.Reportf(call.Pos(), "%s receives a context but calls %s; the ctx-accepting variant %s exists — forward ctx",
			fi.Name(), callee.Name(), variant.Name())
		return true
	})
}

// ctxVariantOf looks for a ctx-accepting sibling of fn named fn+"Ctx": a
// package-level function in the same package, or a method on the same
// receiver type.
func ctxVariantOf(fn *types.Func) *types.Func {
	name := fn.Name() + "Ctx"
	sig, _ := fn.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		recv := sig.Recv().Type()
		obj, _, _ := types.LookupFieldOrMethod(recv, true, fn.Pkg(), name)
		if v, ok := obj.(*types.Func); ok && hasCtxParam(v) {
			return v
		}
		return nil
	}
	if v, ok := fn.Pkg().Scope().Lookup(name).(*types.Func); ok && hasCtxParam(v) {
		return v
	}
	return nil
}

// checkGoroutineLoops applies rule 3 to every `go` statement in fi's body.
func checkGoroutineLoops(p *ProgramPass, fi *FuncInfo) {
	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		g, ok := n.(*ast.GoStmt)
		if !ok {
			return true
		}
		var body *ast.BlockStmt
		switch fun := ast.Unparen(g.Call.Fun).(type) {
		case *ast.FuncLit:
			body = fun.Body
		default:
			callees := p.Prog.resolveCallees(fi.Pkg, g.Call)
			if len(callees) == 1 {
				if ci := p.Prog.Funcs[callees[0]]; ci != nil {
					body = ci.Decl.Body
				}
			}
		}
		if body == nil {
			return true
		}
		checkLoopBody(p, fi, body)
		return true
	})
}

// checkLoopBody flags unconditional `for` loops in a goroutine body that
// cannot observe cancellation.
func checkLoopBody(p *ProgramPass, fi *FuncInfo, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false // nested closures are their own goroutines' problem
		}
		loop, ok := n.(*ast.ForStmt)
		if !ok || loop.Cond != nil {
			return true
		}
		if loopObservesCancel(p, fi, loop.Body) {
			return true
		}
		p.Reportf(loop.For, "unbounded for loop in goroutine reachable from the service layer never checks ctx.Done()/ctx.Err(); it cannot be cancelled")
		return true
	})
}

// loopObservesCancel reports whether the loop body reaches a cancellation
// check: a direct ctx.Done()/ctx.Err()/context.Cause use, or a call to a
// module function whose transitive summary checks.
func loopObservesCancel(p *ProgramPass, fi *FuncInfo, body *ast.BlockStmt) bool {
	info := fi.Pkg.Info
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			if (sel.Sel.Name == "Done" || sel.Sel.Name == "Err") && isCtxType(info.Types[sel.X].Type) {
				found = true
				return false
			}
		}
		for _, callee := range p.Prog.resolveCallees(fi.Pkg, call) {
			if callee.Pkg() != nil && callee.Pkg().Path() == "context" && callee.Name() == "Cause" {
				found = true
				return false
			}
			if ci := p.Prog.Funcs[callee]; ci != nil && ci.Summary.ChecksDoneTrans {
				found = true
				return false
			}
		}
		return true
	})
	return found
}
