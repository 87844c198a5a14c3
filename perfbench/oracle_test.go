package main

import (
	"context"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/dfg"
	"repro/internal/flow"
	"repro/internal/graph"
	"repro/internal/machine"
	"repro/internal/replace"
	"repro/internal/sched"
	"repro/internal/selection"
	"repro/internal/service"
)

func fastParams() core.Params {
	p := core.FastParams()
	p.Workers = 1
	return p
}

// TestOracleCountsCorruptedSchedule: a final schedule that breaks a
// dependence, a report with the wrong cycle count and a selection over its
// cap each count as one failure; the genuine ones pass.
func TestOracleCountsCorruptedSchedule(t *testing.T) {
	bm, err := bench.Get("crc32", "O3")
	if err != nil {
		t.Fatal(err)
	}
	pool, err := flow.BuildPool(bm, flow.Options{Machine: machine.Configs()[0], Params: fastParams(), Algorithm: flow.MI, HotBlocks: 1})
	if err != nil {
		t.Fatal(err)
	}
	c := selection.Constraints{MaxISEs: 2}
	rep, err := pool.Evaluate(c)
	if err != nil {
		t.Fatal(err)
	}
	dec := selection.Select(pool.Groups, c)
	if len(dec.Selected) == 0 {
		t.Fatal("nothing selected; the test needs a deployed ISE")
	}
	d := pool.DFGs[pool.Hot[0]]
	s, a, _, err := replace.ApplyWith(nil, d, pool.Machine, dec.Selected)
	if err != nil {
		t.Fatal(err)
	}

	var tl tally
	tl.check("genuine evaluation", checkEvaluation(pool, c, rep, sched.NewScheduler()))
	tl.check("genuine schedule", checkBlock(d, a, pool.Machine, s))
	if tl.failed != 0 {
		t.Fatalf("genuine outputs counted %d failures", tl.failed)
	}

	wrong := *rep
	wrong.FinalCycles--
	for _, tc := range []struct {
		name string
		err  error
	}{
		{"corrupted schedule", checkBlock(d, a, pool.Machine, corruptSchedule(t, d, a, s))},
		{"wrong report", checkEvaluation(pool, c, &wrong, sched.NewScheduler())},
		{"selection over cap", checkCaps(pool.Groups, dec, selection.Constraints{MaxISEs: len(dec.Selected) - 1})},
	} {
		before := tl.failed
		tl.check(tc.name, tc.err)
		if tl.failed != before+1 {
			t.Errorf("%s was not counted as a failure", tc.name)
		}
	}
	if tl.attempted != 5 {
		t.Errorf("attempted = %d, want 5", tl.attempted)
	}
}

// corruptSchedule issues the consumer of a software-to-software dependence
// in its producer's cycle.
func corruptSchedule(t *testing.T, d *dfg.DFG, a sched.Assignment, s *sched.Schedule) *sched.Schedule {
	t.Helper()
	bad := s.Clone()
	for u := 0; u < d.G.Len(); u++ {
		for _, v := range d.G.Succs(u) {
			if a[u].Kind == sched.KindSW && a[v].Kind == sched.KindSW {
				bad.NodeCycle[v] = bad.NodeCycle[u]
				return bad
			}
		}
	}
	t.Fatal("block has no software dependence to break")
	return nil
}

// jobStatus explores dfgs directly and renders the results the way the
// service returns a finished job.
func jobStatus(t *testing.T, dfgs []*dfg.DFG, cfg machine.Config) service.JobStatus {
	t.Helper()
	st := service.JobStatus{ID: "test", State: service.StateDone}
	for _, d := range dfgs {
		res, _, err := core.ExploreResumable(context.Background(), d, cfg, fastParams(), core.ResumeOptions{})
		if err != nil {
			t.Fatal(err)
		}
		b := service.BlockResult{Block: d.Name, Ops: d.Len(), Weight: int64(d.Weight),
			BaseCycles: res.BaseCycles, FinalCycles: res.FinalCycles, Reduction: res.Reduction()}
		for _, e := range res.ISEs {
			b.ISEs = append(b.ISEs, service.ISESummary{Ops: e.Size(), Nodes: e.Nodes.Values(),
				Cycles: e.Cycles, In: e.In, Out: e.Out, SavingCycles: e.SavingCycles})
		}
		st.Blocks = append(st.Blocks, b)
	}
	return st
}

// TestOracleCountsIllegalISE: an ISE with an ineligible node, an ISE over a
// machine's ports and a block that got slower each count as one failure;
// the genuine job passes.
func TestOracleCountsIllegalISE(t *testing.T) {
	own, err := buildOwn(nil)
	if err != nil {
		t.Fatal(err)
	}
	dfgs := own[kernel{"crc32", "O3"}]
	cfg := machine.Configs()[0]
	kern := sched.NewScheduler()
	good := jobStatus(t, dfgs, cfg)
	if len(good.Blocks[0].ISEs) == 0 {
		t.Fatal("no ISE found; the test needs one")
	}

	var tl tally
	tl.check("genuine job", checkJob(good, dfgs, cfg, kern))
	if tl.failed != 0 {
		t.Fatal("the genuine job counted as a failure")
	}

	// A one-node ISE over an ineligible node (a memory or control
	// operation): convex and within the ports, so only eligibility fails.
	ineligible := jobStatus(t, dfgs, cfg)
	d := dfgs[0]
	v := -1
	for i := range d.Nodes {
		if !d.Nodes[i].ISEEligible() {
			v = i
			break
		}
	}
	if v < 0 {
		t.Fatal("block has no ineligible node")
	}
	one := graph.NodeSetOf(d.Len(), v)
	ineligible.Blocks[0].ISEs[0] = service.ISESummary{Ops: 1, Nodes: []int{v}, In: d.In(one), Out: d.Out(one)}
	// An ISE with two or more operands judged for a one-port machine.
	var wide *service.ISESummary
	for i := range good.Blocks[0].ISEs {
		if e := &good.Blocks[0].ISEs[i]; e.In > 1 {
			wide = e
			break
		}
	}
	if wide == nil {
		t.Fatal("no ISE reads two operands")
	}
	narrow := machine.New(cfg.IssueWidth, 1, 1)
	slower := jobStatus(t, dfgs, cfg)
	slower.Blocks[0].FinalCycles = slower.Blocks[0].BaseCycles + 1

	for _, tc := range []struct {
		name string
		err  error
	}{
		{"ineligible node", checkJob(ineligible, dfgs, cfg, kern)},
		{"ports exceeded", checkISE(d, narrow, *wide)},
		{"block got slower", checkJob(slower, dfgs, cfg, kern)},
	} {
		before := tl.failed
		tl.check(tc.name, tc.err)
		if tl.failed != before+1 {
			t.Errorf("%s was not counted as a failure", tc.name)
		}
	}
}
