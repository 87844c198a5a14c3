package lint

import (
	"go/types"
	"path/filepath"
	"testing"
)

// findFunc looks a function up by its diagnostic name (receiver-qualified
// for methods) in the program's deterministic function list.
func findFunc(t *testing.T, prog *Program, name string) *FuncInfo {
	t.Helper()
	for _, fi := range prog.funcList {
		if fi.Name() == name {
			return fi
		}
	}
	t.Fatalf("function %s not found in program", name)
	return nil
}

// calleeNames flattens a call site's targets to bare function names.
func calleeNames(cs CallSite) []string {
	var names []string
	for _, c := range cs.Callees {
		names = append(names, c.Name())
	}
	return names
}

func TestCallGraphStaticCall(t *testing.T) {
	prog := NewProgram([]*Package{fixturePackage(t, "callgraph")})
	top := findFunc(t, prog, "top")
	if len(top.Calls) != 1 {
		t.Fatalf("top has %d call sites, want 1", len(top.Calls))
	}
	if names := calleeNames(top.Calls[0]); len(names) != 1 || names[0] != "leaf" {
		t.Fatalf("top's callees = %v, want [leaf]", names)
	}
}

func TestCallGraphMethodValue(t *testing.T) {
	prog := NewProgram([]*Package{fixturePackage(t, "callgraph")})
	mv := findFunc(t, prog, "methodVal")
	var refs []CallSite
	for _, cs := range mv.Calls {
		if cs.Ref {
			refs = append(refs, cs)
		}
	}
	if len(refs) != 1 {
		t.Fatalf("methodVal has %d Ref sites, want 1 (the f.run method value)", len(refs))
	}
	if names := calleeNames(refs[0]); len(names) != 1 || names[0] != "run" {
		t.Fatalf("method-value target = %v, want [run]", names)
	}
}

func TestCallGraphInterfaceDispatch(t *testing.T) {
	prog := NewProgram([]*Package{fixturePackage(t, "callgraph")})
	d := findFunc(t, prog, "dispatch")
	if len(d.Calls) != 1 {
		t.Fatalf("dispatch has %d call sites, want 1", len(d.Calls))
	}
	// Conservative fan-out: every module implementer of runner.
	recvs := map[string]bool{}
	for _, c := range d.Calls[0].Callees {
		sig := c.Type().(*types.Signature)
		if sig.Recv() != nil {
			recvs[namedTypeName(sig.Recv().Type())] = true
		}
	}
	if !recvs["fast"] || !recvs["slow"] || len(recvs) != 2 {
		t.Fatalf("interface dispatch resolved to receivers %v, want {fast, slow}", recvs)
	}
}

func TestCallGraphRecursionFixpoint(t *testing.T) {
	prog := NewProgram([]*Package{fixturePackage(t, "callgraph")})
	even := findFunc(t, prog, "even")
	odd := findFunc(t, prog, "odd")
	if len(even.Summary.AllocSites) != 0 {
		t.Fatalf("even has direct alloc sites %v, want none", even.Summary.AllocSites)
	}
	if !odd.Summary.Allocates {
		t.Fatal("odd allocates directly but its summary says otherwise")
	}
	if !even.Summary.Allocates {
		t.Fatal("Allocates did not propagate around the even/odd recursion cycle")
	}
}

func TestCallGraphGoDeferSites(t *testing.T) {
	prog := NewProgram([]*Package{fixturePackage(t, "callgraph")})
	spawn := findFunc(t, prog, "spawn")
	var goWorker, deferCleanup bool
	for _, cs := range spawn.Calls {
		names := calleeNames(cs)
		if cs.Go && len(names) == 1 && names[0] == "worker" {
			goWorker = true
		}
		if cs.Defer && len(names) == 1 && names[0] == "cleanup" {
			deferCleanup = true
		}
	}
	if !goWorker {
		t.Error("missing Go-flavored call site for `go worker()`")
	}
	if !deferCleanup {
		t.Error("missing Defer-flavored call site for `defer cleanup()`")
	}
}

// TestAllocFreeRealTree is the acceptance check: the //alloc:free roots in
// the real module — the scheduling kernel, the explorer steady-state loop
// and the subgraph matcher's search, whose contracts the runtime alloc tests
// pin — must produce zero unsuppressed allocfree findings.
func TestAllocFreeRealTree(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the real module; skipped in -short")
	}
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	l, err := NewLoader(root)
	if err != nil {
		t.Fatalf("loader: %v", err)
	}
	for _, dir := range []string{"internal/sched", "internal/core", "internal/match"} {
		pkg, err := l.Load(filepath.Join(root, dir))
		if err != nil {
			t.Fatalf("loading %s: %v", dir, err)
		}
		if len(pkg.Errors) > 0 {
			t.Fatalf("%s has type errors: %v", dir, pkg.Errors)
		}
	}
	pkgs := l.Packages()
	prog := NewProgram(pkgs)
	roots := 0
	for _, fi := range prog.funcList {
		if fi.AllocFree {
			roots++
		}
	}
	if roots < 5 {
		t.Fatalf("found %d //alloc:free roots, want at least 5 (Scheduler.Schedule, explorer.walk/trailUpdate/meritUpdate, searcher.search)", roots)
	}
	for _, f := range RunProgram(pkgs, &Config{Analyzers: []*Analyzer{AllocFree}}) {
		if !f.Suppressed {
			t.Errorf("unexpected allocfree finding on the real tree: %s", f)
		}
	}
}
