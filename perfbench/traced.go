package main

import (
	"context"
	"fmt"
	"time"

	"repro/internal/baseline"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/dfg"
	"repro/internal/experiments"
	"repro/internal/flow"
	"repro/internal/machine"
	"repro/internal/merging"
	"repro/internal/replace"
	"repro/internal/sched"
	"repro/internal/selection"
)

// The traced paper_matrix pass rebuilds every pool of the matrix from the
// modules' public calls, with a span around each call, and evaluates it
// under every constraint. Its reports must equal flow.BuildPool +
// Pool.Evaluate (the warm suite of phase 1), so the traced path cannot
// drift from the real flow. Hot blocks are explored one after another
// (restarts still fan out over the 2 workers) so that stage spans never
// overlap and their sum is comparable with the traced wall time. The same
// rebuild runs once more untraced, and the difference of the two wall times
// is the tracing overhead.

// matrixStages are the leaf spans of the traced pass; their sum over the
// traced wall time is the stage coverage.
var matrixStages = []struct{ span, metric string }{
	{"vm.profile", "vm.profile_s"},
	{"dfg.build", "dfg.build_s"},
	{"sched.base", "sched.base_s"},
	{"core.explore", "core.explore_s"},
	{"baseline.explore", "baseline.explore_s"},
	{"flow.price", "flow.price_s"},
	{"merging.merge", "merging.merge_s"},
	{"selection.select", ""},
	{"replace.apply", "replace.apply_cold_s"},
}

// tracedPool is the traced rebuild of one flow.Pool.
type tracedPool struct {
	call   poolCall
	bm     *bench.Benchmark
	dfgs   map[int]*dfg.DFG
	blocks []int // sorted block indices
	base   float64
	groups []merging.Group
	cands  int
}

// tracedEnv holds the scratch shared by every traced pool build, as the
// flow shares its own across pool builds.
type tracedEnv struct {
	tr    *tracer
	p     core.Params
	hot   int
	exScr *core.Scratch
	blScr *baseline.Scratch
	kern  *sched.Scheduler
}

// buildPool mirrors flow.BuildPoolCtx: profile, build every executed
// block's DFG, schedule the all-software baseline, explore and price the hot
// blocks, merge the candidates.
func (env *tracedEnv) buildPool(ctx context.Context, parent int, pc poolCall) (*tracedPool, error) {
	tr := env.tr
	sp := tr.begin("vm.profile", parent)
	bm, err := bench.Get(pc.bench, pc.opt)
	if err != nil {
		tr.end(sp)
		return nil, err
	}
	prof, err := bm.Run()
	tr.end(sp)
	if err != nil {
		return nil, err
	}

	sp = tr.begin("dfg.build", parent)
	var executed []int
	for bi, c := range prof.BlockCounts {
		if c > 0 {
			executed = append(executed, bi)
		}
	}
	tp := &tracedPool{call: pc, bm: bm, dfgs: map[int]*dfg.DFG{}}
	for _, d := range dfg.BuildAll(bm.Prog, executed, prof.BlockCounts) {
		tp.dfgs[d.BlockIndex] = d
	}
	tp.blocks = sortedBlocks(tp.dfgs)
	hot := prof.HotBlocks(bm.Prog, env.hot)
	tr.end(sp)

	sp = tr.begin("sched.base", parent)
	for _, bi := range tp.blocks {
		d := tp.dfgs[bi]
		s, err := env.kern.Schedule(d, sched.AllSoftware(d.Len()), pc.machine)
		if err != nil {
			tr.end(sp)
			return nil, err
		}
		tp.base += float64(s.Length) * float64(d.Weight)
	}
	tr.end(sp)

	var cache *core.EvalCache
	if !env.p.NoEvalCache {
		cache = core.NewEvalCache()
	}
	var cands []*merging.Candidate
	for i, bi := range hot {
		d := tp.dfgs[bi]
		var res *core.Result
		if pc.algo == flow.MI {
			sp = tr.begin("core.explore", parent)
			if i == 0 {
				hotDFGs := make([]*dfg.DFG, 0, len(hot))
				for _, h := range hot {
					hotDFGs = append(hotDFGs, tp.dfgs[h])
				}
				env.exScr.Prewarm(hotDFGs...)
			}
			res, _, err = core.ExploreResumable(ctx, d, pc.machine, env.p,
				core.ResumeOptions{Cache: cache, Scratch: env.exScr})
		} else {
			sp = tr.begin("baseline.explore", parent)
			res, err = baseline.ExploreSharedCtx(ctx, d, pc.machine, env.p, env.blScr)
		}
		tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("explore %s: %w", d.Name, err)
		}

		sp = tr.begin("flow.price", parent)
		gains, err := price(d, pc.machine, res.ISEs, cache, env.kern)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		for j, ise := range res.ISEs {
			cands = append(cands, &merging.Candidate{ISE: ise, DFG: d, Gain: gains[j] * float64(d.Weight)})
		}
	}
	tp.cands = len(cands)

	sp = tr.begin("merging.merge", parent)
	tp.groups = merging.Merge(cands)
	tr.end(sp)
	return tp, nil
}

// price gives each ISE its marginal cycle saving when the block's ISEs are
// deployed cumulatively in exploration order, through the shared cache.
func price(d *dfg.DFG, cfg machine.Config, ises []*core.ISE, cache *core.EvalCache, kern *sched.Scheduler) ([]float64, error) {
	prev, err := cache.ScheduleWith(kern, d, sched.AllSoftware(d.Len()), cfg)
	if err != nil {
		return nil, err
	}
	gains := make([]float64, len(ises))
	for i := range ises {
		n, err := cache.ScheduleWith(kern, d, core.BuildAssignment(d, ises[:i+1]), cfg)
		if err != nil {
			return nil, err
		}
		gains[i] = float64(prev - n)
		prev = n
	}
	return gains, nil
}

// rebuild builds every pool of order and evaluates it under every
// constraint, with each pool's spans under parent. It returns the pools (nil
// where the build failed), their reports in constraint order, and the
// selected ISEs and deployed instances summed over every report.
func (env *tracedEnv) rebuild(ctx context.Context, parent int, order []poolCall, cons []selection.Constraints,
	t *tally) (pools []*tracedPool, reps [][]*flow.Report, selected, instances int) {
	pools = make([]*tracedPool, len(order))
	reps = make([][]*flow.Report, len(order))
	for i, pc := range order {
		ps := env.tr.begin("pool/"+pc.key(), parent)
		tp, err := env.buildPool(ctx, ps, pc)
		if err == nil {
			pools[i] = tp
			for _, c := range cons {
				rep, n, err := env.evaluate(ps, tp, c)
				if err != nil {
					t.check("traced evaluate", err)
					break
				}
				reps[i] = append(reps[i], rep)
				selected += rep.NumISEs
				instances += n
			}
		}
		env.tr.end(ps)
		t.check("traced pool "+pc.key(), err)
	}
	return pools, reps, selected, instances
}

// evaluate mirrors Pool.Evaluate: select under c, then apply the selection
// to every block. It also returns the number of deployed instances.
func (env *tracedEnv) evaluate(parent int, tp *tracedPool, c selection.Constraints) (*flow.Report, int, error) {
	tr := env.tr
	sp := tr.begin("selection.select", parent)
	dec := selection.Select(tp.groups, c)
	tr.end(sp)
	rep := &flow.Report{
		Benchmark:  tp.bm.Name,
		OptLevel:   tp.bm.Opt,
		Machine:    tp.call.machine.Name,
		Algorithm:  tp.call.algo,
		BaseCycles: tp.base,
		AreaUM2:    dec.AreaUM2,
		NumISEs:    len(dec.Selected),
		Selected:   dec.Selected,
	}
	instances := 0
	sp = tr.begin("replace.apply", parent)
	defer tr.end(sp)
	for _, bi := range tp.blocks {
		d := tp.dfgs[bi]
		s, _, insts, err := replace.ApplyWith(env.kern, d, tp.call.machine, dec.Selected)
		if err != nil {
			return nil, 0, err
		}
		rep.FinalCycles += float64(s.Length) * float64(d.Weight)
		instances += len(insts)
	}
	return rep, instances, nil
}

// sameReport reports how got differs from the flow's report want.
func sameReport(got, want *flow.Report) error {
	if got.Benchmark != want.Benchmark || got.OptLevel != want.OptLevel || got.Machine != want.Machine ||
		got.Algorithm != want.Algorithm || got.BaseCycles != want.BaseCycles || got.FinalCycles != want.FinalCycles ||
		got.AreaUM2 != want.AreaUM2 || got.NumISEs != want.NumISEs || len(got.Selected) != len(want.Selected) {
		return fmt.Errorf("traced report %s/%s %s %s: %.0f→%.0f cycles, %d ISEs, %.1f µm²; flow: %.0f→%.0f, %d, %.1f",
			got.Benchmark, got.OptLevel, got.Machine, got.Algorithm, got.BaseCycles, got.FinalCycles, got.NumISEs, got.AreaUM2,
			want.BaseCycles, want.FinalCycles, want.NumISEs, want.AreaUM2)
	}
	for i, g := range got.Selected {
		w := want.Selected[i]
		if g.DFG.Name != w.DFG.Name || g.Gain != w.Gain || g.ISE.String() != w.ISE.String() {
			return fmt.Errorf("traced report %s/%s %s %s: selected ISE %d is %s in %s, flow has %s in %s",
				got.Benchmark, got.OptLevel, got.Machine, got.Algorithm, i, g.ISE, g.DFG.Name, w.ISE, w.DFG.Name)
		}
	}
	return nil
}

// evalCall is one Pool.Evaluate call of a figure sweep.
type evalCall struct {
	pool int // index into poolOrder
	c    selection.Constraints
}

// figureCalls lists, in order, the Pool.Evaluate calls that Figs 5.2.1,
// 5.2.2, 5.2.3 and the headline make on s.
func figureCalls(s *experiments.Suite) []evalCall {
	index := map[poolCall]int{}
	for i, pc := range poolOrder(s) {
		index[pc] = i
	}
	at := func(b, opt string, i int, algo flow.Algorithm) int {
		return index[poolCall{kernel{b, opt}, s.Machines[i], algo}]
	}
	var out []evalCall
	algos := []flow.Algorithm{flow.MI, flow.SI}
	for _, algo := range algos { // Fig 5.2.1
		for mi := range s.Machines {
			for _, opt := range s.OptLevels {
				for _, areaCap := range experiments.AreaCaps {
					for _, b := range s.Benchmarks {
						out = append(out, evalCall{at(b, opt, mi, algo), selection.Constraints{MaxAreaUM2: areaCap}})
					}
				}
			}
		}
	}
	for _, algo := range algos { // Fig 5.2.2
		for mi := range s.Machines {
			for _, opt := range s.OptLevels {
				for _, n := range experiments.ISECounts {
					for _, b := range s.Benchmarks {
						out = append(out, evalCall{at(b, opt, mi, algo), selection.Constraints{MaxISEs: n}})
					}
				}
			}
		}
	}
	for _, algo := range algos { // Fig 5.2.3
		for _, n := range experiments.ISECounts {
			for mi := range s.Machines {
				for _, opt := range s.OptLevels {
					for _, b := range s.Benchmarks {
						out = append(out, evalCall{at(b, opt, mi, algo), selection.Constraints{MaxISEs: n}})
					}
				}
			}
		}
	}
	areaCap := experiments.AreaCaps[len(experiments.AreaCaps)-1]
	for _, b := range s.Benchmarks { // headline
		for mi := range s.Machines {
			for _, opt := range s.OptLevels {
				out = append(out,
					evalCall{at(b, opt, mi, flow.MI), selection.Constraints{MaxISEs: 1}},
					evalCall{at(b, opt, mi, flow.MI), selection.Constraints{MaxAreaUM2: areaCap}},
					evalCall{at(b, opt, mi, flow.SI), selection.Constraints{MaxAreaUM2: areaCap}})
			}
		}
	}
	return out
}

// warmSweeps is how many traced warm re-sweeps the traced pass times.
const warmSweeps = 5

// tracedMatrix runs the traced pass after phase 1 and the oracle, and
// returns the per-layer metrics.
func tracedMatrix(cfg config, suite *experiments.Suite, params core.Params, cold *coldPhase,
	before, after map[string]float64, t *tally) (map[string]float64, *tally, error) {
	ctx := context.Background()
	env := &tracedEnv{tr: newTracer(), p: params, hot: suite.HotBlocks,
		exScr: core.NewScratch(), blScr: baseline.NewScratch(), kern: sched.NewScheduler()}
	tr := env.tr
	order := poolOrder(suite)
	cons := constraints()

	// The untraced twin runs first on its own scratch, so both rebuilds
	// start cold.
	stderrf("paper_matrix: untraced rebuild of %d pools", len(order))
	twin := &tracedEnv{p: params, hot: suite.HotBlocks,
		exScr: core.NewScratch(), blScr: baseline.NewScratch(), kern: sched.NewScheduler()}
	t0 := time.Now()
	twin.rebuild(ctx, 0, order, cons, t)
	untraced := time.Since(t0)

	stderrf("paper_matrix: traced rebuild of %d pools", len(order))
	m := map[string]float64{}
	root := tr.begin("matrix", 0)
	pools, reps, selected, instances := env.rebuild(ctx, root, order, cons, t)
	tr.end(root)
	wall := tr.dur(root)

	// The flow's reports come from the warm phase-1 suite, outside the
	// traced wall time.
	cands, groups := 0, 0
	for i, pc := range order {
		if pools[i] == nil {
			continue
		}
		cands += pools[i].cands
		groups += len(pools[i].groups)
		pool, err := suite.Pool(pc.bench, pc.opt, pc.machine, pc.algo)
		if err != nil {
			t.check("flow pool", err)
			continue
		}
		for ci, got := range reps[i] {
			want, err := pool.Evaluate(cons[ci])
			if err == nil {
				err = sameReport(got, want)
			}
			t.check("traced report matches flow", err)
		}
	}

	stderrf("paper_matrix: %d traced warm re-sweeps", warmSweeps)
	calls := figureCalls(suite)
	var warmApply, warmSelect []float64
	for r := 0; r < warmSweeps; r++ {
		sw := tr.begin("resweep", 0)
		for _, call := range calls {
			if pools[call.pool] == nil {
				continue
			}
			if _, _, err := env.evaluate(sw, pools[call.pool], call.c); err != nil {
				t.check("traced warm evaluate", err)
				break
			}
		}
		tr.end(sw)
		warmApply = append(warmApply, tr.total("replace.apply", sw).Seconds())
		warmSelect = append(warmSelect, tr.total("selection.select", sw).Seconds())
	}

	covered := 0.0
	shares := map[string]float64{}
	for _, st := range matrixStages {
		d := tr.total(st.span, root).Seconds()
		covered += d
		shares[st.span] = d
		if st.metric != "" {
			m[st.metric] = d
		}
	}
	for _, k := range kernels() {
		m["flow.pool_s."+k.key()] = tr.total("pool/"+k.key(), root).Seconds()
	}
	for k, v := range counterMetrics(before, after) {
		m[k] = v
	}
	m["replace.apply_warm_s"] = median(warmApply)
	m["selection.select_s"] = median(warmSelect)
	m["merging.candidates"] = float64(cands)
	m["merging.groups"] = float64(groups)
	m["selection.selected"] = float64(selected)
	m["replace.instances"] = float64(instances)
	m["trace.wall_s"] = wall.Seconds()
	m["trace.coverage"] = covered / wall.Seconds()
	m["trace.overhead_s"] = wall.Seconds() - untraced.Seconds()
	for _, k := range []string{"service.submit_s", "service.queue_wait_s", "service.run_s", "service.events", "service.sse_resumes", "service.overhead_s"} {
		m[k] = 0 // paper_matrix never calls the service layer
	}

	printShares("paper_matrix traced stages", shares, wall.Seconds())
	match := shares["merging.merge"] + shares["replace.apply"]
	fmt.Printf("paper_matrix: coverage %.1f%%; merging+replacement (match-bound) %.1f%% of traced wall; untraced rebuild %.3fs, tracing overhead %.3fs; untraced phase 1 %.3fs\n",
		100*covered/wall.Seconds(), 100*match/wall.Seconds(), untraced.Seconds(), wall.Seconds()-untraced.Seconds(), cold.wall.Seconds())
	printCounters(before, after)
	if err := tr.write(traceFile(cfg)); err != nil {
		stderrf("trace not written: %v", err)
	}
	return m, t, nil
}

// printCounters prints the raw engine-counter deltas of the measured phase.
func printCounters(before, after map[string]float64) {
	fmt.Println("engine counter deltas:")
	for _, n := range engineCounters {
		fmt.Printf("  %-34s %.0f\n", n, after[n]-before[n])
	}
}
