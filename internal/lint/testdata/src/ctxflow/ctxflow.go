// Package ctxflow reconstructs the cancellation-chain bugs the pass exists
// to catch. Run is the shape of a past flow regression: the caller received
// a context, built its state cancellably, then dropped ctx on the floor by
// calling the ctx-less Evaluate even though EvaluateCtx exists. Serve holds
// the goroutine-loop rule; this package doubles as its own service root in
// the test config.
package ctxflow

import "context"

type pool struct{ n int }

// Evaluate is the ctx-less legacy API.
func (p *pool) Evaluate() int { return p.n }

// EvaluateCtx is the cancellable variant.
func (p *pool) EvaluateCtx(ctx context.Context) int {
	if ctx.Err() != nil {
		return 0
	}
	return p.n
}

// Run receives a context but evaluates uncancellably (rule 1, variant form).
func Run(ctx context.Context, p *pool) int {
	return p.Evaluate() // want "ctx-accepting variant EvaluateCtx exists"
}

// restart receives a context but forwards a fresh Background (rule 1).
func restart(ctx context.Context, p *pool) int {
	return p.EvaluateCtx(context.Background()) // want "forward the caller's ctx"
}

// seed has no context in scope at all (rule 2).
func seed(p *pool) int {
	return p.EvaluateCtx(context.Background()) // want "outside package main"
}

// Compat is the sanctioned wrapper shape: Background suppressed with a
// recorded reason.
func Compat(p *pool) int {
	//lint:ignore ctxflow compat wrapper: Compat predates cancellation; EvaluateCtx is the cancellable form
	return p.EvaluateCtx(context.Background())
}

// Serve spawns two workers. The first spins forever without observing
// cancellation (rule 3); the second shows the sanctioned select shape.
func Serve(ctx context.Context, p *pool) {
	go func() {
		for { // want "cannot be cancelled"
			spin(p)
		}
	}()
	go func() {
		for {
			select {
			case <-ctx.Done():
				return
			default:
				spin(p)
			}
		}
	}()
}

func spin(p *pool) { p.n++ }
