package core

import (
	"math"
	"strings"
	"testing"

	"repro/internal/machine"
	"repro/internal/prog"
)

// TestParamsValidate walks every rejected parameter shape. Each bad set must
// fail Params.Validate and make ExploreResumable return that error before
// any restart runs — an unknown Priority used to panic a runner goroutine
// mid-exploration instead.
func TestParamsValidate(t *testing.T) {
	if err := DefaultParams().Validate(); err != nil {
		t.Fatalf("default params rejected: %v", err)
	}
	if err := FastParams().Validate(); err != nil {
		t.Fatalf("fast params rejected: %v", err)
	}
	bad := []struct {
		name string
		set  func(*Params)
		want string
	}{
		{"priority", func(p *Params) { p.Priority = 9 }, "unknown priority"},
		{"negative priority", func(p *Params) { p.Priority = -1 }, "unknown priority"},
		{"iterations", func(p *Params) { p.MaxIterations = -1 }, "counts"},
		{"rounds", func(p *Params) { p.MaxRounds = -1 }, "counts"},
		{"restarts", func(p *Params) { p.Restarts = -1 }, "counts"},
		{"pipestages", func(p *Params) { p.MaxISECycles = -1 }, "counts"},
		{"huge restarts", func(p *Params) { p.Restarts = MaxRestarts + 1 }, "limit"},
		{"alpha above 1", func(p *Params) { p.Alpha = 1.5 }, "Alpha"},
		{"alpha below 0", func(p *Params) { p.Alpha = -0.1 }, "Alpha"},
		{"alpha NaN", func(p *Params) { p.Alpha = math.NaN() }, "Alpha"},
		{"pend infinite", func(p *Params) { p.PEnd = math.Inf(1) }, "PEnd"},
		{"pend NaN", func(p *Params) { p.PEnd = math.NaN() }, "PEnd"},
	}
	d := blockDFG(t, func(b *prog.Builder) { logicChain(b, 4) })
	before := obsRestarts.Value()
	for _, c := range bad {
		p := FastParams()
		c.set(&p)
		err := p.Validate()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Validate() = %v, want an error mentioning %q", c.name, err, c.want)
		}
		if _, _, err := ExploreResumable(t.Context(), d, machine.New(2, 4, 2), p, ResumeOptions{}); err == nil {
			t.Errorf("%s: ExploreResumable accepted the params", c.name)
		}
	}
	if after := obsRestarts.Value(); after != before {
		t.Fatalf("rejected params ran %v restarts", after-before)
	}
	// The edges of the accepted ranges stay valid.
	p := FastParams()
	p.Alpha, p.PEnd, p.Restarts, p.Priority = 0, 1, MaxRestarts, PriorityMobility
	if err := p.Validate(); err != nil {
		t.Fatalf("boundary params rejected: %v", err)
	}
}
