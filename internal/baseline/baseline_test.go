package baseline

import (
	"testing"

	"repro/internal/core"
	"repro/internal/dfg"
	"repro/internal/graph"
	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/prog"
	"repro/internal/sched"
)

func blockDFG(t *testing.T, emit func(b *prog.Builder)) *dfg.DFG {
	t.Helper()
	b := prog.NewBuilder("t")
	emit(b)
	b.Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	lv := prog.ComputeLiveness(p)
	return dfg.Build(p, 0, 1, lv.LiveOut[0])
}

func logicChain(b *prog.Builder, dst prog.Reg, k int) {
	ops := []isa.Opcode{isa.OpAND, isa.OpXOR, isa.OpOR}
	b.R(isa.OpAND, dst, prog.A0, prog.A1)
	for i := 1; i < k; i++ {
		b.R(ops[i%3], dst, dst, prog.A1)
	}
}

func TestBaselineFindsISEsOnChain(t *testing.T) {
	d := blockDFG(t, func(b *prog.Builder) { logicChain(b, prog.T0, 9) })
	cfg := machine.New(2, 4, 2)
	r, err := ExploreSharedCtx(t.Context(), d, cfg, core.FastParams(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.ISEs) == 0 {
		t.Fatal("baseline found no ISE on a 9-op chain")
	}
	if err := r.Assignment.Validate(d); err != nil {
		t.Fatal(err)
	}
	for _, e := range r.ISEs {
		if e.Size() < 2 || !d.IsConvex(e.Nodes) {
			t.Errorf("bad ISE %v", e)
		}
		if e.In > cfg.ReadPorts || e.Out > cfg.WritePorts {
			t.Errorf("%v exceeds ports", e)
		}
	}
	// On a serial chain even the legality-only baseline helps the 2-issue
	// machine.
	if r.FinalCycles >= r.BaseCycles {
		t.Errorf("baseline did not improve serial chain: %d -> %d", r.BaseCycles, r.FinalCycles)
	}
}

func TestBaselineDeterministic(t *testing.T) {
	d := blockDFG(t, func(b *prog.Builder) { logicChain(b, prog.T0, 7) })
	cfg := machine.New(2, 6, 3)
	p := core.FastParams()
	a, err := ExploreSharedCtx(t.Context(), d, cfg, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ExploreSharedCtx(t.Context(), d, cfg, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a.FinalCycles != b.FinalCycles || len(a.ISEs) != len(b.ISEs) {
		t.Fatalf("nondeterministic: %d/%d ISEs", len(a.ISEs), len(b.ISEs))
	}
}

func TestBaselineNoEligibleOps(t *testing.T) {
	d := blockDFG(t, func(b *prog.Builder) {
		b.Load(isa.OpLW, prog.T0, prog.SP, 0)
		b.Store(isa.OpSW, prog.T0, prog.SP, 4)
	})
	r, err := ExploreSharedCtx(t.Context(), d, machine.New(2, 4, 2), core.FastParams(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.ISEs) != 0 {
		t.Fatalf("ISEs among memory ops: %v", r.ISEs)
	}
}

func TestBaselineEmptyDFGAndBadMachine(t *testing.T) {
	d := &dfg.DFG{Name: "empty", G: graph.New(0), Data: graph.New(0)}
	if _, err := ExploreSharedCtx(t.Context(), d, machine.New(2, 4, 2), core.FastParams(), nil); err == nil {
		t.Fatal("empty DFG accepted")
	}
	good := blockDFG(t, func(b *prog.Builder) { logicChain(b, prog.T0, 3) })
	bad := machine.New(2, 4, 2)
	bad.WritePorts = 0
	if _, err := ExploreSharedCtx(t.Context(), good, bad, core.FastParams(), nil); err == nil {
		t.Fatal("invalid machine accepted")
	}
	p := core.FastParams()
	p.Priority = 9
	if _, err := ExploreSharedCtx(t.Context(), good, machine.New(2, 4, 2), p, nil); err == nil {
		t.Fatal("invalid params accepted")
	}
}

// TestLocationAwareBeatsLegalityOnly reproduces the paper's central claim
// (§1.4, Fig. 1.3.1): on a multiple-issue machine, exploring with critical-
// path awareness (core) is at least as good as legality-only exploration
// (baseline), and the baseline wastes area on operations the wide machine
// already runs in parallel.
func TestLocationAwareBeatsLegalityOnly(t *testing.T) {
	// One long dependent chain (critical) next to many independent op pairs
	// (parallel slack the 3-issue machine absorbs for free).
	d := blockDFG(t, func(b *prog.Builder) {
		logicChain(b, prog.T0, 8) // critical chain
		for i := 0; i < 4; i++ {
			r := prog.T1 + prog.Reg(i)
			b.R(isa.OpAND, r, prog.A2, prog.A3)
			b.R(isa.OpXOR, r, r, prog.A2)
		}
	})
	cfg := machine.New(3, 6, 3)
	p := core.FastParams()
	p.Restarts = 3
	mi, _, err := core.ExploreResumable(t.Context(), d, cfg, p, core.ResumeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	si, err := ExploreSharedCtx(t.Context(), d, cfg, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if mi.FinalCycles > si.FinalCycles {
		t.Errorf("location-aware (%d cycles) worse than legality-only (%d cycles)",
			mi.FinalCycles, si.FinalCycles)
	}
	if mi.FinalCycles >= mi.BaseCycles {
		t.Errorf("location-aware found no improvement at all")
	}
}

func TestBaselineSchedulesOnTargetMachine(t *testing.T) {
	// FinalCycles must be a real multiple-issue schedule of the returned
	// assignment.
	d := blockDFG(t, func(b *prog.Builder) { logicChain(b, prog.T0, 6) })
	cfg := machine.New(2, 4, 2)
	r, err := ExploreSharedCtx(t.Context(), d, cfg, core.FastParams(), nil)
	if err != nil {
		t.Fatal(err)
	}
	s, err := sched.ListSchedule(d, r.Assignment, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if s.Length != r.FinalCycles {
		t.Fatalf("FinalCycles %d but schedule %d", r.FinalCycles, s.Length)
	}
}
