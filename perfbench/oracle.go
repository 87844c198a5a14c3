package main

import (
	"fmt"

	"repro/internal/dfg"
	"repro/internal/experiments"
	"repro/internal/flow"
	"repro/internal/graph"
	"repro/internal/machine"
	"repro/internal/merging"
	"repro/internal/replace"
	"repro/internal/sched"
	"repro/internal/selection"
	"repro/internal/service"
)

// oracleMatrix re-runs selection and replacement for every pool ×
// constraint of s and checks each outcome; every violation is a failure.
func oracleMatrix(s *experiments.Suite, t *tally) {
	kern := sched.NewScheduler()
	for _, pc := range poolOrder(s) {
		pool, err := s.Pool(pc.bench, pc.opt, pc.machine, pc.algo)
		if err != nil {
			t.check("oracle pool", err)
			continue
		}
		for _, c := range constraints() {
			what := fmt.Sprintf("oracle %s %s %s %+v", pc.key(), pc.machine.Name, pc.algo, c)
			rep, err := pool.Evaluate(c)
			if err == nil {
				err = checkEvaluation(pool, c, rep, kern)
			}
			t.check(what, err)
		}
	}
}

// checkEvaluation re-derives rep independently of Pool.Evaluate: it
// re-runs selection, checks the caps, re-applies the selection to every
// block, checks each final schedule with the sched.Verify oracle, and
// compares the whole-program cycle count.
func checkEvaluation(pool *flow.Pool, c selection.Constraints, rep *flow.Report, kern *sched.Scheduler) error {
	dec := selection.Select(pool.Groups, c)
	if err := checkCaps(pool.Groups, dec, c); err != nil {
		return err
	}
	if len(dec.Selected) != rep.NumISEs || dec.AreaUM2 != rep.AreaUM2 {
		return fmt.Errorf("report has %d ISEs / %.1f µm², selection gives %d / %.1f",
			rep.NumISEs, rep.AreaUM2, len(dec.Selected), dec.AreaUM2)
	}
	final := 0.0
	for _, bi := range sortedBlocks(pool.DFGs) {
		d := pool.DFGs[bi]
		s, a, _, err := replace.ApplyWith(kern, d, pool.Machine, dec.Selected)
		if err != nil {
			return err
		}
		if err := checkBlock(d, a, pool.Machine, s); err != nil {
			return err
		}
		final += float64(s.Length) * float64(d.Weight)
	}
	if final != rep.FinalCycles {
		return fmt.Errorf("report has %.0f final cycles, re-applied selection gives %.0f", rep.FinalCycles, final)
	}
	return nil
}

// checkBlock checks one final schedule with the independent sched.Verify
// oracle.
func checkBlock(d *dfg.DFG, a sched.Assignment, cfg machine.Config, s *sched.Schedule) error {
	if err := sched.Verify(d, a, cfg, s); err != nil {
		return fmt.Errorf("block %s: %w", d.Name, err)
	}
	return nil
}

// checkCaps checks a selection against its ISE-count and area caps, with
// the area recomputed from the groups: each group's ASFU is paid once.
func checkCaps(groups []merging.Group, dec selection.Decision, c selection.Constraints) error {
	if c.MaxISEs > 0 && len(dec.Selected) > c.MaxISEs {
		return fmt.Errorf("%d ISEs selected over a cap of %d", len(dec.Selected), c.MaxISEs)
	}
	groupOf := map[*merging.Candidate]int{}
	for gi, g := range groups {
		for _, m := range g.Members {
			groupOf[m] = gi
		}
	}
	charged := map[int]bool{}
	area := 0.0
	for _, cand := range dec.Selected {
		gi, ok := groupOf[cand]
		if !ok {
			return fmt.Errorf("selected candidate belongs to no group")
		}
		if cand.Gain <= 0 {
			return fmt.Errorf("selected candidate has gain %.1f", cand.Gain)
		}
		if !charged[gi] {
			charged[gi] = true
			area += groups[gi].AreaUM2
		}
	}
	if area != dec.AreaUM2 {
		return fmt.Errorf("selection charges %.1f µm², its groups cost %.1f", dec.AreaUM2, area)
	}
	if c.MaxAreaUM2 > 0 && area > c.MaxAreaUM2 {
		return fmt.Errorf("%.1f µm² selected over a cap of %.1f", area, c.MaxAreaUM2)
	}
	return nil
}

// checkJob checks a finished job's results against DFGs the benchmark
// built itself (dfgs, by block name) on the job's machine: every block was
// explored, its base cycle count matches an all-software schedule, it got no
// slower, and every ISE is eligible, convex and within the read and write
// ports.
func checkJob(st service.JobStatus, dfgs []*dfg.DFG, cfg machine.Config, kern *sched.Scheduler) error {
	if st.State != service.StateDone {
		return fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Error)
	}
	if len(st.Blocks) != len(dfgs) {
		return fmt.Errorf("job %s returned %d blocks, want %d", st.ID, len(st.Blocks), len(dfgs))
	}
	byName := map[string]*dfg.DFG{}
	for _, d := range dfgs {
		byName[d.Name] = d
	}
	for _, b := range st.Blocks {
		d, ok := byName[b.Block]
		if !ok {
			return fmt.Errorf("job %s returned unknown block %q", st.ID, b.Block)
		}
		if b.Ops != d.Len() {
			return fmt.Errorf("block %s has %d ops, want %d", b.Block, b.Ops, d.Len())
		}
		base, err := kern.Schedule(d, sched.AllSoftware(d.Len()), cfg)
		if err != nil {
			return err
		}
		if b.BaseCycles != base.Length {
			return fmt.Errorf("block %s base %d cycles, all-software schedule has %d", b.Block, b.BaseCycles, base.Length)
		}
		if b.FinalCycles > b.BaseCycles {
			return fmt.Errorf("block %s got slower: %d > %d cycles", b.Block, b.FinalCycles, b.BaseCycles)
		}
		for i, e := range b.ISEs {
			if err := checkISE(d, cfg, e); err != nil {
				return fmt.Errorf("block %s ISE %d: %w", b.Block, i, err)
			}
		}
	}
	return nil
}

// checkISE checks one returned ISE on d.
func checkISE(d *dfg.DFG, cfg machine.Config, e service.ISESummary) error {
	if len(e.Nodes) == 0 || len(e.Nodes) != e.Ops {
		return fmt.Errorf("%d nodes for %d ops", len(e.Nodes), e.Ops)
	}
	for _, v := range e.Nodes {
		if v < 0 || v >= d.Len() {
			return fmt.Errorf("node %d outside the %d-node block", v, d.Len())
		}
	}
	nodes := graph.NodeSetOf(d.Len(), e.Nodes...)
	switch {
	case nodes.Len() != len(e.Nodes):
		return fmt.Errorf("repeated nodes %v", e.Nodes)
	case !d.AllEligible(nodes):
		return fmt.Errorf("ineligible node in %v", e.Nodes)
	case !d.IsConvex(nodes):
		return fmt.Errorf("non-convex node set %v", e.Nodes)
	case d.In(nodes) > cfg.ReadPorts || d.Out(nodes) > cfg.WritePorts:
		return fmt.Errorf("%d/%d operands exceed %d/%d ports", d.In(nodes), d.Out(nodes), cfg.ReadPorts, cfg.WritePorts)
	case d.In(nodes) != e.In || d.Out(nodes) != e.Out:
		return fmt.Errorf("reports %d/%d operands, block has %d/%d", e.In, e.Out, d.In(nodes), d.Out(nodes))
	}
	return nil
}
