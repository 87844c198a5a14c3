// Package baseline re-implements the comparison point of the paper's
// evaluation: the ant-colony ISE exploration of Wu et al. (HiPEAC 2007,
// reference [8]), which considers only the *legality* of operations — port,
// convexity and eligibility constraints — and models a single-issue
// processor. It has no notion of operation location: no instruction
// scheduling, no critical path, no Max_AEC slack. Its figure of merit is the
// serial cycle count (one instruction per cycle), so it happily packs
// operations a multiple-issue machine would have executed in parallel anyway
// — exactly the deficiency §1.4 of the paper demonstrates.
//
// Results are evaluated downstream on the multiple-issue machine by the same
// design flow as the proposed algorithm ("schedule the result of
// single-issue with ISE on a 2-issue processor", Fig. 1.3.1 case 1).
//
// The explorer embeds core.Colony, the trail/merit machinery the
// multiple-issue explorer runs on too, and adds only what the single-issue
// search does differently. It follows the pooled-arena pattern of
// internal/core (DESIGN.md §13): every per-iteration structure is a
// grow-only buffer owned by the explorer, so steady-state iterations
// allocate nothing (TestBaselineSteadyStateAllocs), and explorers themselves
// are pooled in a Scratch so arena warmup is paid once per worker per run,
// not once per (worker, block).
package baseline

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/aco"
	"repro/internal/core"
	"repro/internal/dfg"
	"repro/internal/graph"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/sched"
)

var (
	obsBaselineScratchReused = obs.Default.Counter("ise_baseline_scratch_reused_total",
		"Baseline worker scratch (kernel + explorer arenas) acquisitions served warm from a Scratch pool.")
	obsBaselineScratchFresh = obs.Default.Counter("ise_baseline_scratch_fresh_total",
		"Baseline worker scratch acquisitions that had to build a fresh kernel + explorer.")
	obsBaselineArenaGrows = obs.Default.Counter("ise_baseline_arena_grows_total",
		"Baseline-explorer arena buffer (re)allocations — nonzero only while per-worker arenas warm up to their DFG.")
)

// workerScratch bundles the reusable per-worker state of one baseline
// exploration worker: the scheduling kernel (for the final multiple-issue
// evaluation) and the explorer arenas. Pure scratch — which worker previously
// used them never affects a restart's result.
type workerScratch struct {
	kern *sched.Scheduler
	exp  *explorer
}

// Scratch is a pool of baseline worker scratch shared across the
// explorations of one run, mirroring core.Scratch. Safe for concurrent use;
// see parallel.ScratchPool for the reuse contract.
type Scratch struct {
	pool parallel.ScratchPool
}

// NewScratch returns an empty scratch pool.
func NewScratch() *Scratch {
	s := &Scratch{}
	s.pool.New = func() any {
		return &workerScratch{
			kern: sched.NewScheduler(),
			exp:  &explorer{Colony: core.Colony{Grows: obsBaselineArenaGrows}},
		}
	}
	s.pool.Reused = obsBaselineScratchReused
	s.pool.Fresh = obsBaselineScratchFresh
	return s
}

func (s *Scratch) acquire() *workerScratch   { return s.pool.Get().(*workerScratch) }
func (s *Scratch) release(ws *workerScratch) { s.pool.Put(ws) }

// ExploreSharedCtx runs the legality-only single-issue exploration on d.
// The machine configuration supplies only the register-port constraints
// Nin/Nout (the single-issue model ignores issue width); the returned
// Result's Base and Final cycle counts are nevertheless measured on cfg by
// the multiple-issue scheduler so that results are directly comparable with
// core.ExploreResumable.
//
// The context is checked between restarts and between convergence
// iterations. The baseline has no checkpoint format — a cancelled run
// returns ctx's error and a later run simply starts over (it is
// deterministic, so a rerun reproduces what the uninterrupted run would have
// returned).
//
// scr supplies the per-worker kernels and explorer arenas, so a caller
// exploring many blocks (flow.BuildPool) pays arena warmup once per worker
// instead of once per block. A nil scr uses a private pool
// (per-exploration reuse only). Scratch is pure scratch: results are
// byte-identical with or without it, at any worker count.
func ExploreSharedCtx(ctx context.Context, d *dfg.DFG, cfg machine.Config, p core.Params, scr *Scratch) (*core.Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if d.Len() == 0 {
		return nil, fmt.Errorf("baseline: empty DFG %s", d.Name)
	}
	baseCycles, err := sched.ListScheduleLength(d, sched.AllSoftware(d.Len()), cfg)
	if err != nil {
		return nil, fmt.Errorf("baseline: base schedule of %s: %w", d.Name, err)
	}
	restarts := p.Restarts
	if restarts < 1 {
		restarts = 1
	}
	// Restarts are independent and deterministically seeded, so they fan out
	// across the shared bounded worker pool; the left-to-right reduction
	// below keeps parallel and sequential runs identical. Each worker owns
	// one scratch (kernel + explorer — pure scratch, never affects results).
	results := make([]*core.Result, restarts)
	serials := make([]int, restarts)
	errs := make([]error, restarts)
	if scr == nil {
		scr = NewScratch()
	}
	ws := make([]*workerScratch, parallel.Degree(p.Workers, restarts))
	for i := range ws {
		ws[i] = scr.acquire()
	}
	defer func() {
		for _, w := range ws {
			scr.release(w)
		}
	}()
	cancelErr := parallel.ForEach(ctx, restarts, p.Workers, func(w, r int) {
		results[r], serials[r], errs[r] = runOnce(ctx, d, cfg, p, p.Seed+int64(r)*104729, baseCycles, ws[w])
	})
	if cancelErr != nil {
		return nil, cancelErr
	}
	var best *core.Result
	var bestSerial int
	for r := 0; r < restarts; r++ {
		if errs[r] != nil {
			return nil, errs[r]
		}
		// The baseline optimizes its own (serial) objective; ties broken by
		// area, faithfully ignorant of the multiple-issue outcome.
		if best == nil || serials[r] < bestSerial ||
			(serials[r] == bestSerial && results[r].AreaUM2() < best.AreaUM2()) {
			best, bestSerial = results[r], serials[r]
		}
	}
	return best, nil
}

// explorer is the single-issue engine: the shared core.Colony plus what
// makes the search Wu et al.'s legality-only one — option draws in node
// order that schedule nothing, iteration groups priced by the serial cycle
// model, and case-4 shaping against a subgraph's serial cost. One explorer
// is owned by one exploration worker at a time and reused across restarts,
// explorations and DFGs (reset rebinds it): every `arena:` annotated field
// below is scratch recycled each iteration, so steady-state option selection
// and merit sweeps allocate nothing. Reuse is pure scratch — which worker
// runs which restart never affects the result.
type explorer struct {
	core.Colony
	rng *rand.Rand

	chosen []int // arena: selectOptions' per-node option choices

	// Iteration groups — the connected components of hardware-chosen free
	// nodes — as a flat CSR: group g's members are
	// groupNodes[groupStart[g]:groupStart[g+1]], sorted by topological
	// position, and groupOf maps node -> group (-1 if software/fixed).
	// Rebuilt by buildGroups every iteration.
	hwSet      graph.NodeSet // arena: hardware-chosen node set
	groupOf    []int         // arena: node -> group index
	groupStart []int         // arena: CSR offsets into groupNodes
	groupNodes []int         // arena: flat group-member storage
	groupStack []int         // arena: component DFS stack

	vsSet graph.NodeSet // arena: hwMerit's virtual subgraph vSx
}

// reset rebinds a pooled explorer to one restart's inputs, keeping every
// warmed arena; per-iteration scratch needs no reset — each use fully
// overwrites it.
func (e *explorer) reset(d *dfg.DFG, cfg machine.Config, p core.Params, rng *rand.Rand) error {
	e.rng = rng
	if err := e.Bind(d, cfg, p); err != nil {
		return fmt.Errorf("baseline: %w", err)
	}
	return nil
}

func runOnce(ctx context.Context, d *dfg.DFG, cfg machine.Config, p core.Params, seed int64, baseCycles int, ws *workerScratch) (*core.Result, int, error) {
	e := ws.exp
	if err := e.reset(d, cfg, p, aco.NewRand(seed)); err != nil {
		return nil, 0, err
	}

	res := &core.Result{BaseCycles: baseCycles, FinalCycles: baseCycles}
	curSerial := e.serialCycles(nil)
	for round := 0; round < p.MaxRounds; round++ {
		e.InitTables()
		iters, err := e.converge(ctx)
		if err != nil {
			return nil, 0, err
		}
		res.Iterations += iters
		res.Rounds++
		cand, serial := e.bestCandidate(curSerial)
		if cand == nil {
			break
		}
		cand.SavingCycles = curSerial - serial
		e.Accept(cand)
		curSerial = serial
	}

	res.ISEs = append(res.ISEs, e.Fixed...)
	res.Assignment = core.BuildAssignment(d, res.ISEs)
	final, err := ws.kern.Schedule(d, res.Assignment, cfg)
	if err != nil {
		return nil, 0, fmt.Errorf("baseline: final schedule of %s: %w", d.Name, err)
	}
	res.FinalCycles = final.Length
	return res, curSerial, nil
}

// converge runs option-selection iterations until P_END or the cap. The
// context is checked before each iteration; a cancelled round aborts the
// restart with ctx's error.
func (e *explorer) converge(ctx context.Context) (int, error) {
	tetOld := 1 << 30
	for it := 1; it <= e.P.MaxIterations; it++ {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		chosen := e.selectOptions()
		tet := e.serialCycles(chosen)
		improved := tet <= tetOld
		e.UpdateTrail(chosen, improved, nil, nil)
		if improved {
			tetOld = tet
		}
		e.meritUpdate(chosen)
		if e.ConvergedNow() {
			return it, nil
		}
	}
	return e.P.MaxIterations, nil
}

// selectOptions draws one implementation option per free node in node order
// — one rng draw per free node, the draw order the deterministic random
// stream depends on. The result aliases the explorer's arena and is valid
// until the next call.
//
//alloc:free
func (e *explorer) selectOptions() []int {
	n := e.D.Len()
	chosen := e.GrowInts(e.chosen, n)
	for x := 0; x < n; x++ {
		if !e.Free(x) {
			chosen[x] = -1
			continue
		}
		chosen[x] = aco.SelectWeighted(e.rng, e.Weights(x))
	}
	e.chosen = chosen
	return chosen
}

// buildGroups computes the iteration groups — the connected components of
// hardware-chosen free nodes under chosen — into the flat CSR arenas. Each
// component is discovered from its smallest member and its member segment is
// sorted by topological position, so metric sweeps over a group accumulate
// in exactly the order a whole-topo filtered scan would.
//
//alloc:free
func (e *explorer) buildGroups(chosen []int) {
	d := e.D
	n := d.Len()
	e.hwSet.Reset(n)
	hw := &e.hwSet
	anyHW := false
	for v := 0; v < n; v++ {
		if e.Free(v) && e.IsHWOption(v, chosen[v]) && d.Nodes[v].ISEEligible() {
			hw.Add(v)
			anyHW = true
		}
	}
	e.groupOf = e.GrowInts(e.groupOf, n)
	groupOf := e.groupOf
	for i := range groupOf {
		groupOf[i] = -1
	}
	starts := e.groupStart[:0]
	mem := e.groupNodes[:0]
	if anyHW {
		stack := e.groupStack[:0]
		ng := 0
		for v := 0; v < n; v++ {
			if !hw.Contains(v) || groupOf[v] >= 0 {
				continue
			}
			starts = append(starts, len(mem))
			stack = append(stack[:0], v)
			groupOf[v] = ng
			for len(stack) > 0 {
				u := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				mem = append(mem, u)
				for _, w := range d.G.Succs(u) {
					if hw.Contains(w) && groupOf[w] < 0 {
						groupOf[w] = ng
						stack = append(stack, w)
					}
				}
				for _, w := range d.G.Preds(u) {
					if hw.Contains(w) && groupOf[w] < 0 {
						groupOf[w] = ng
						stack = append(stack, w)
					}
				}
			}
			e.SortByTopo(mem[starts[ng]:])
			ng++
		}
		e.groupStack = stack
	}
	starts = append(starts, len(mem))
	e.groupStart, e.groupNodes = starts, mem
}

// serialCycles is the single-issue execution-time model: one cycle per
// software instruction plus the latency of each ISE, all strictly
// sequential. chosen optionally provides per-node iteration choices for
// nodes not in accepted ISEs; when given, the iteration groups are (re)built
// and left in the explorer for meritUpdate to reuse.
//
//alloc:free
func (e *explorer) serialCycles(chosen []int) int {
	cycles, counted := 0, 0
	for _, f := range e.Fixed {
		cycles += f.Cycles
		counted += f.Nodes.Len()
	}
	if chosen != nil {
		e.buildGroups(chosen)
		for g := 0; g < len(e.groupStart)-1; g++ {
			// A group is a connected component of hwSet, so a member's
			// predecessors in hwSet are exactly its in-group ones.
			members := e.groupNodes[e.groupStart[g]:e.groupStart[g+1]]
			delay, _ := e.SubgraphMetrics(e.hwSet, members, chosen, -1, 0)
			cycles += sched.CyclesForDelay(delay)
			counted += len(members)
		}
	}
	// Fixed members, group members and the remaining one-cycle software
	// stream are disjoint, so the uncounted remainder is n - counted.
	return cycles + e.D.Len() - counted
}

// meritUpdate is the legality-only merit function: no critical-path case, no
// slack case — only size, constraint violations, and serial cycle saving. It
// reads the iteration groups serialCycles(chosen) left in the explorer, so
// it must run after serialCycles with the same chosen.
//
//alloc:free
func (e *explorer) meritUpdate(chosen []int) {
	d := e.D
	for x := 0; x < d.Len(); x++ {
		if !e.Free(x) {
			continue
		}
		e.SoftwareMerit(x)
		if len(d.Nodes[x].HW) > 0 {
			e.hwMerit(chosen, x)
		}
		e.NormalizeMerit(x)
	}
}

// addGroupMembers unions iteration group g into the virtual-subgraph arena.
func (e *explorer) addGroupMembers(g int) {
	for _, v := range e.groupNodes[e.groupStart[g]:e.groupStart[g+1]] {
		e.vsSet.Add(v)
	}
}

// hwMerit shapes x's hardware options over vSx, x joined with its own and
// its neighbours' iteration groups: the shared size and constraint cases,
// then case 4 with the subgraph's serial cost (one cycle per member) and
// area rewarded only at the fastest option — there is no critical path and
// no slack to spend.
func (e *explorer) hwMerit(chosen []int, x int) {
	d := e.D
	e.vsSet.Reset(d.Len())
	e.vsSet.Add(x)
	for _, nb := range d.G.Succs(x) {
		if g := e.groupOf[nb]; g >= 0 {
			e.addGroupMembers(g)
		}
	}
	for _, nb := range d.G.Preds(x) {
		if g := e.groupOf[nb]; g >= 0 {
			e.addGroupMembers(g)
		}
	}
	if g := e.groupOf[x]; g >= 0 {
		e.addGroupMembers(g)
	}
	vs := e.vsSet
	if !e.LegalSubgraph(x, vs) {
		return
	}
	members := e.MembersInTopoOrder(vs)
	minCycles, maxArea := e.OptionMetrics(vs, members, chosen, x)
	e.ShapeHW(x, vs.Len(), minCycles, maxArea)
}

// bestCandidate returns the round's candidate (core.Colony.Candidates) with
// the best *serial* gain — the single-issue objective — together with the
// resulting serial cycle count; area breaks ties.
func (e *explorer) bestCandidate(curSerial int) (*core.ISE, int) {
	var best *core.ISE
	bestSerial := curSerial
	for _, ise := range e.Candidates() {
		// Serial gain: members leave the 1-cycle stream, ISE joins.
		serial := curSerial - ise.Size() + ise.Cycles
		if serial > curSerial {
			continue
		}
		if best == nil || serial < bestSerial || (serial == bestSerial && ise.AreaUM2 < best.AreaUM2) {
			best, bestSerial = ise, serial
		}
	}
	return best, bestSerial
}
