package main

import (
	"fmt"
	"reflect"
	"sort"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/dfg"
	"repro/internal/experiments"
	"repro/internal/flow"
	"repro/internal/machine"
	"repro/internal/sched"
	"repro/internal/selection"
)

// The paper_matrix workload: the evaluation matrix `isebench -all -fast`
// runs (7 benchmarks × O0/O3 × 6 machines × MI/SI with core.FastParams and 2
// workers). Phase 1 runs a fresh experiments.Suite cold; phase 2 re-sweeps
// every figure on the same warm Suite a fixed number of times; an untimed
// oracle pass then re-checks every pool × constraint.

const (
	// matrixWorkers is the worker-pool size of every pool build (nproc = 2).
	matrixWorkers = 2
	// matrixSetups is how many times set-up runs; setup_s is the median.
	// One set-up takes a few milliseconds, so 101 of them take under 0.5 s.
	matrixSetups = 101
	// Phase 2 times sweepsPerSecond warm re-sweeps per second of --seconds
	// (one took about 0.15 s on 2 CPUs when the benchmark was introduced), and at least
	// minSweeps, so that 10 lie beyond their 90th percentile. The count is
	// fixed so that every commit measures the same work.
	sweepsPerSecond = 7
	minSweeps       = 100
)

// poolCall names one exploration pool of the matrix.
type poolCall struct {
	kernel
	machine machine.Config
	algo    flow.Algorithm
}

// poolOrder lists every pool of the matrix in the order Fig. 5.2.1 first
// touches them (algorithm, machine, optimization level, benchmark).
func poolOrder(s *experiments.Suite) []poolCall {
	var out []poolCall
	for _, algo := range []flow.Algorithm{flow.MI, flow.SI} {
		for _, cfg := range s.Machines {
			for _, opt := range s.OptLevels {
				for _, b := range s.Benchmarks {
					out = append(out, poolCall{kernel{b, opt}, cfg, algo})
				}
			}
		}
	}
	return out
}

// constraints are the distinct selection constraints the figures and the
// headline evaluate: every area cap, then every ISE-count budget.
func constraints() []selection.Constraints {
	var out []selection.Constraints
	for _, c := range experiments.AreaCaps {
		out = append(out, selection.Constraints{MaxAreaUM2: c})
	}
	for _, n := range experiments.ISECounts {
		out = append(out, selection.Constraints{MaxISEs: n})
	}
	return out
}

// figures are the outputs of one full sweep.
type figures struct {
	area  *experiments.AreaSweep
	count *experiments.CountSweep
	avt   *experiments.AreaVsTime
	head  *experiments.Headline
}

// runFigures regenerates Figs 5.2.1–5.2.3 and the headline on s.
func runFigures(s *experiments.Suite) (*figures, error) {
	var f figures
	var err error
	if f.area, err = s.RunAreaSweep(); err != nil {
		return nil, err
	}
	if f.count, err = s.RunCountSweep(); err != nil {
		return nil, err
	}
	if f.avt, err = s.RunAreaVsTime(); err != nil {
		return nil, err
	}
	if f.head, err = s.RunHeadline(); err != nil {
		return nil, err
	}
	return &f, nil
}

func matrixParams(seed int64) core.Params {
	p := core.FastParams()
	p.Seed = seed
	p.Workers = matrixWorkers
	return p
}

func newSuite(p core.Params) *experiments.Suite {
	s := experiments.NewSuite(p)
	s.Workers = matrixWorkers
	return s
}

// setupMatrix prepares and checks the matrix's inputs: it loads and
// profiles every kernel (bench.Run checks each kernel's output against its
// Go reference model), builds the DFG of every executed block and schedules
// each all-software on every machine.
func setupMatrix(t *tally, kern *sched.Scheduler) {
	for _, k := range kernels() {
		t.check("set-up "+k.key(), func() error {
			bm, err := bench.Get(k.bench, k.opt)
			if err != nil {
				return err
			}
			prof, err := bm.Run()
			if err != nil {
				return err
			}
			var executed []int
			for bi, c := range prof.BlockCounts {
				if c > 0 {
					executed = append(executed, bi)
				}
			}
			for _, d := range dfg.BuildAll(bm.Prog, executed, prof.BlockCounts) {
				for _, cfg := range machine.Configs() {
					if _, err := kern.Schedule(d, sched.AllSoftware(d.Len()), cfg); err != nil {
						return err
					}
				}
			}
			return nil
		}())
	}
}

// coldPhase is phase 1's outcome.
type coldPhase struct {
	wall, cpu time.Duration
	figs      *figures
}

// runCold runs phase 1: every figure and the headline on a fresh suite,
// which builds each pool on first use.
func runCold(s *experiments.Suite) (*coldPhase, error) {
	cpu0 := cpuTime()
	start := time.Now()
	figs, err := runFigures(s)
	if err != nil {
		return nil, err
	}
	return &coldPhase{wall: time.Since(start), cpu: cpuTime() - cpu0, figs: figs}, nil
}

func runMatrix(cfg config) (map[string]float64, *tally, error) {
	t := &tally{}
	params := matrixParams(cfg.seed)

	var setups []float64
	kern := sched.NewScheduler()
	for i := 0; i < matrixSetups; i++ {
		t0 := time.Now()
		setupMatrix(t, kern)
		setups = append(setups, time.Since(t0).Seconds())
	}
	m := map[string]float64{}

	before := readCounters()
	suite := newSuite(params)
	stderrf("paper_matrix: phase 1 (cold matrix)")
	cold, err := runCold(suite)
	t.check("phase 1 cold matrix", err)
	if err != nil {
		return nil, nil, err
	}
	after := readCounters()

	n := max(minSweeps, int(sweepsPerSecond*cfg.seconds.Seconds()))
	if cfg.traced {
		// No per-layer metric reads phase 2's timings; a few re-sweeps
		// still check the warm figures, and the time goes to the traced
		// rebuild and its untraced twin.
		n = warmSweeps
	}
	stderrf("paper_matrix: phase 2 (%d warm re-sweeps)", n)
	var sweeps []float64
	p2 := time.Now()
	for len(sweeps) < n {
		t0 := time.Now()
		figs, err := runFigures(suite)
		sweeps = append(sweeps, time.Since(t0).Seconds())
		if err == nil && !reflect.DeepEqual(figs, cold.figs) {
			err = fmt.Errorf("warm re-sweep %d differs from the cold figures", len(sweeps))
		}
		t.check("phase 2 re-sweep", err)
	}
	p2wall := time.Since(p2)

	stderrf("paper_matrix: oracle pass")
	oracleMatrix(suite, t)

	fmt.Printf("paper_matrix: phase 1 %.3fs wall, %.3fs CPU; phase 2 %d re-sweeps, median %.4fs\n",
		cold.wall.Seconds(), cold.cpu.Seconds(), len(sweeps), median(sweeps))
	fmt.Printf("paper_matrix: headline one-ISE avg %.4f%%, Fig 5.2.3 MI@32 %.4f%%\n",
		100*cold.figs.head.OneISE.Avg, 100*lastOf(cold.figs.avt.Reduction[flow.MI]))

	if cfg.traced {
		return tracedMatrix(cfg, suite, params, cold, before, after, t)
	}
	explored, err := exploredReduction(suite)
	t.check("explored reduction", err)
	m["setup_s"] = median(setups)
	m["matrix_s"] = cold.wall.Seconds()
	m["resweep_s"] = median(sweeps)
	m["job_p50_s"] = quantile(sweeps, 0.5)
	m["job_p90_s"] = quantile(sweeps, 0.9)
	m["jobs_per_s"] = float64(len(sweeps)) / p2wall.Seconds()
	m["one_ise_reduction_pct"] = 100 * cold.figs.head.OneISE.Avg
	m["mean_reduction_pct"] = 100 * lastOf(cold.figs.avt.Reduction[flow.MI])
	m["job_reduction_pct"] = explored
	return m, t, nil
}

func lastOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return xs[len(xs)-1]
}

// exploredReduction is the mean over pools of the reduction the pool's
// priced candidates promise before selection: Σ candidate gain / base cycles.
func exploredReduction(s *experiments.Suite) (float64, error) {
	sum, n := 0.0, 0
	for _, pc := range poolOrder(s) {
		p, err := s.Pool(pc.bench, pc.opt, pc.machine, pc.algo)
		if err != nil {
			return 0, err
		}
		gain := 0.0
		for _, g := range p.Groups {
			for _, c := range g.Members {
				gain += c.Gain
			}
		}
		sum += gain / p.BaseCycles
		n++
	}
	return 100 * sum / float64(n), nil
}

// sortedBlocks returns the block indices of m in ascending order, the order
// flow accumulates whole-program cycle counts in.
func sortedBlocks(m map[int]*dfg.DFG) []int {
	idx := make([]int, 0, len(m))
	for bi := range m {
		idx = append(idx, bi)
	}
	sort.Ints(idx)
	return idx
}
