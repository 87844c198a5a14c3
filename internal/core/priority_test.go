package core

import (
	"math/rand"
	"testing"

	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/prog"
	"repro/internal/randprog"
)

func TestPriorityVariantsExplore(t *testing.T) {
	// Each priority function must drive a working exploration on the same
	// DFG (§6 future work: "adopting different priority functions to
	// identify the critical path").
	d := blockDFG(t, func(b *prog.Builder) { logicChain(b, 9) })
	cfg := machine.New(2, 4, 2)
	for _, prio := range []Priority{PriorityChildren, PriorityHeight, PriorityMobility} {
		p := FastParams()
		p.Priority = prio
		r, _, err := ExploreResumable(t.Context(), d, cfg, p, ResumeOptions{})
		if err != nil {
			t.Fatalf("priority %d: %v", prio, err)
		}
		if r.FinalCycles >= r.BaseCycles {
			t.Errorf("priority %d: no improvement (%d -> %d)", prio, r.BaseCycles, r.FinalCycles)
		}
		checkResult(t, d, cfg, r)
	}
}

func TestPriorityVectors(t *testing.T) {
	// Chain a->b->c plus isolated d: verify each SP function's ordering.
	d := blockDFG(t, func(b *prog.Builder) {
		b.R(isa.OpADD, prog.T0, prog.A0, prog.A1) // n0: head of chain
		b.R(isa.OpADD, prog.T1, prog.T0, prog.A0) // n1
		b.R(isa.OpADD, prog.T2, prog.T1, prog.A0) // n2: tail
		b.R(isa.OpADD, prog.T3, prog.A2, prog.A3) // n3: isolated
	})
	e := testExplorer(t, d, machine.New(2, 4, 2), FastParams(), 1)

	e.P.Priority = PriorityChildren
	e.initPriority()
	if !(e.sp[0] >= 1 && e.sp[2] == 0 && e.sp[3] == 0) {
		t.Errorf("children SP = %v", e.sp)
	}

	e.P.Priority = PriorityHeight
	e.initPriority()
	if !(e.sp[0] > e.sp[1] && e.sp[1] > e.sp[2]) {
		t.Errorf("height SP not decreasing along chain: %v", e.sp)
	}

	e.P.Priority = PriorityMobility
	e.initPriority()
	// All chain nodes lie on the 3-long critical path: SP = 3 each; the
	// isolated node has SP 1.
	if e.sp[0] != 3 || e.sp[1] != 3 || e.sp[2] != 3 {
		t.Errorf("mobility SP on chain = %v, want 3s", e.sp[:3])
	}
	if e.sp[3] >= e.sp[0] {
		t.Errorf("isolated node SP %v not below critical %v", e.sp[3], e.sp[0])
	}
}

func TestPriorityVariantsOnRandomDFGs(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	cfg := machine.New(2, 6, 3)
	for trial := 0; trial < 10; trial++ {
		d := randprog.DFG(r, randprog.Config{Ops: 5 + r.Intn(20)})
		for _, prio := range []Priority{PriorityHeight, PriorityMobility} {
			p := tinyParams()
			p.Priority = prio
			res, _, err := ExploreResumable(t.Context(), d, cfg, p, ResumeOptions{})
			if err != nil {
				t.Fatalf("trial %d prio %d: %v", trial, prio, err)
			}
			if res.FinalCycles > res.BaseCycles {
				t.Errorf("trial %d prio %d: slower", trial, prio)
			}
		}
	}
}

func TestUnknownPriorityPanics(t *testing.T) {
	d := blockDFG(t, func(b *prog.Builder) { logicChain(b, 3) })
	e := testExplorer(t, d, machine.New(2, 4, 2), FastParams(), 1)
	e.P.Priority = Priority(99)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on unknown priority")
		}
	}()
	e.initPriority()
}
