package core

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/prog"
	"repro/internal/sched"
)

// forceHW biases the explorer's tables so every walk picks the first
// hardware option of every eligible node — making the packing rules of
// Fig. 4.3.4 deterministic and directly observable.
func forceHW(e *explorer) {
	for x := range e.merit {
		for o := range e.merit[x] {
			if e.IsHWOption(x, o) && o == e.numSW[x] {
				e.trail[x][o] = 1e9
			} else {
				e.trail[x][o] = 0
				e.merit[x][o] = 1e-9
			}
		}
	}
}

func TestWalkPacksChainIntoOneISE(t *testing.T) {
	// Three fast logic ops in a chain fit one 10 ns stage: with hardware
	// forced everywhere, the walk must pack them into a single group issued
	// in one cycle (Fig. 4.3.4: pack with the latest parent's ISE).
	d := blockDFG(t, func(b *prog.Builder) {
		b.R(isa.OpAND, prog.T0, prog.A0, prog.A1)
		b.R(isa.OpOR, prog.T1, prog.T0, prog.A0)
		b.R(isa.OpAND, prog.T2, prog.T1, prog.A1)
	})
	e := testExplorer(t, d, machine.New(2, 4, 2), DefaultParams(), 1)
	forceHW(e)
	res := e.walk()
	if res.groupOf[0] < 0 || res.groupOf[0] != res.groupOf[1] || res.groupOf[1] != res.groupOf[2] {
		t.Fatalf("groups = %v, want one shared group", res.groupOf[:3])
	}
	g := res.groups[res.groupOf[0]]
	if g.lat != 1 {
		t.Errorf("group latency = %d, want 1 (%.2f ns)", g.lat, g.delayNS)
	}
	// 1 cycle for the ISE + 1 for the halt's block position at most.
	if res.tet > 2 {
		t.Errorf("tet = %d, want ≤ 2", res.tet)
	}
}

func TestWalkSplitsAtPipestage(t *testing.T) {
	// Four chained slow xors (4.17 ns each) exceed MaxISECycles=1 at three
	// members (12.5 ns): the walk must start a second group.
	d := blockDFG(t, func(b *prog.Builder) {
		b.R(isa.OpXOR, prog.T0, prog.A0, prog.A1)
		b.R(isa.OpXOR, prog.T0, prog.T0, prog.A1)
		b.R(isa.OpXOR, prog.T0, prog.T0, prog.A1)
		b.R(isa.OpXOR, prog.T0, prog.T0, prog.A1)
	})
	e := testExplorer(t, d, machine.New(2, 4, 2), DefaultParams(), 1)
	e.P.MaxISECycles = 1
	forceHW(e)
	res := e.walk()
	if len(res.groups) < 2 {
		t.Fatalf("groups = %d, want the chain split across ≥ 2", len(res.groups))
	}
	for _, g := range res.groups {
		if g.lat > 1 {
			t.Errorf("group latency %d exceeds pipestage cap", g.lat)
		}
	}
}

func TestWalkPortLimitForcesNewGroup(t *testing.T) {
	// A reduction tree of 2-input adds: the whole tree needs 8 reads, far
	// beyond 4 ports, so the walk's packing must stop growing the group at
	// the port limit rather than create an unschedulable monster.
	d := blockDFG(t, func(b *prog.Builder) {
		b.R(isa.OpADD, prog.T0, prog.A0, prog.A1)
		b.R(isa.OpADD, prog.T1, prog.A2, prog.A3)
		b.R(isa.OpADD, prog.T2, prog.S0, prog.S1)
		b.R(isa.OpADD, prog.T3, prog.S2, prog.S3)
		b.R(isa.OpADD, prog.T4, prog.T0, prog.T1)
		b.R(isa.OpADD, prog.T5, prog.T2, prog.T3)
		b.R(isa.OpADD, prog.V0, prog.T4, prog.T5)
	})
	cfg := machine.New(2, 4, 2)
	e := testExplorer(t, d, cfg, DefaultParams(), 1)
	forceHW(e)
	res := e.walk()
	for gi, g := range res.groups {
		if in := d.In(g.nodes); in > cfg.ReadPorts {
			t.Errorf("group %d demands %d reads > %d ports", gi, in, cfg.ReadPorts)
		}
	}
}

func TestWalkSchedulesFixedISEAsUnit(t *testing.T) {
	// An accepted ISE from a previous round is a single pseudo-operation:
	// all members share one issue cycle in subsequent walks.
	d := blockDFG(t, func(b *prog.Builder) {
		b.R(isa.OpAND, prog.T0, prog.A0, prog.A1)
		b.R(isa.OpOR, prog.T1, prog.T0, prog.A0)
		b.R(isa.OpXOR, prog.T2, prog.T1, prog.A1)
	})
	e := testExplorer(t, d, machine.New(2, 4, 2), DefaultParams(), 1)
	fixedSet := graph.NodeSetOf(d.Len(), 0, 1)
	e.Accept(NewISE(d, fixedSet, map[int]int{}))
	for trial := 0; trial < 10; trial++ {
		res := e.walk()
		if res.chosen[0] != -1 || res.chosen[1] != -1 {
			t.Fatalf("fixed members made choices: %v", res.chosen[:2])
		}
		if res.orderPos[0] != res.orderPos[1] {
			t.Fatalf("fixed members scheduled separately")
		}
		if res.tet < 2 {
			t.Fatalf("tet = %d: dependent xor cannot share the ISE's cycle", res.tet)
		}
	}
}

func TestWalkTETAtLeastListSchedule(t *testing.T) {
	// The walk is an incremental greedy scheduler; it can never beat a
	// latency bound that ListSchedule also respects: the dependence depth.
	d := blockDFG(t, func(b *prog.Builder) { logicChain(b, 7) })
	e := testExplorer(t, d, machine.New(2, 6, 3), DefaultParams(), 1)
	for trial := 0; trial < 25; trial++ {
		res := e.walk()
		if res.tet < 1 {
			t.Fatal("degenerate walk")
		}
		// All-software dependence bound is 7; hardware packing may compress
		// to ceil(7 ops / ~2 per 10ns)… the hard floor is the grouped
		// latency sum ≥ 2 for a 7-op chain of ~3ns cells under the 3-cycle
		// pipestage cap.
		if res.tet < 2 {
			t.Fatalf("trial %d: tet = %d below physical floor", trial, res.tet)
		}
	}
	_ = sched.CyclesForDelay // document the latency model linkage
}
