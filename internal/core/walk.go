package core

import (
	"math/rand"

	"repro/internal/aco"
	"repro/internal/dfg"
	"repro/internal/graph"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/sched"
)

// explorer is the multiple-issue engine: the shared Colony plus what makes
// the search location-aware — ant walks that schedule every option draw,
// the critical path and Max_AEC slack of merit cases 1 and 4, and candidate
// pricing by rescheduling. One explorer is owned by one exploration worker
// and reused across the restarts that worker runs (reset puts it back to a
// fresh restart's state): all the `arena:` annotated fields below are
// scratch recycled every iteration, so steady-state ant construction and
// merit sweeps allocate nothing (DESIGN.md §13, TestExploreSteadyStateAllocs).
// Reuse is pure scratch — which worker runs which restart never affects the
// restart's result.
type explorer struct {
	Colony

	rng *rand.Rand
	// rngSrc counts rng's draws so a checkpoint can record the stream
	// position and a resumed restart can skip back to it (see
	// aco.CountingSource).
	rngSrc *aco.CountingSource
	// cache memoizes schedule evaluations; may be nil (NoEvalCache).
	cache *EvalCache
	// kern is this explorer's reusable scheduling kernel; restarts sharing a
	// worker share one. Pure scratch — never affects results.
	kern *sched.Scheduler
	// tr records observation-only spans on track tid; nil when tracing is
	// off (the common case — a nil tracer's methods are free).
	tr  *obs.Tracer
	tid int
	// evalAssign is evaluate's reusable assignment buffer. arena: valid
	// until the next assignmentWith call.
	evalAssign sched.Assignment

	sp []float64 // scheduling priority per node

	// asap/tail are per-iteration unit-latency longest-path arrays reused
	// by the mobility computation.
	asap []int
	tail []int

	// depthI is swDepth's longest-path scratch. Entries are written before
	// they are read in topological order, so no reset is needed between
	// calls.
	depthI []int

	// Unit contraction of the accepted ISEs, rebuilt whenever the fixed set
	// changes (once per round): unit u's members are
	// unitMembers[unitStart[u]:unitStart[u+1]], unitOf maps node->unit, and
	// unitSuccs CSR-lists each unit's deduplicated successor units in the
	// exact first-encounter order walk's retire loop visits them, so the
	// ready list grows in the same order the per-walk edge consumption used
	// to produce. unitIndeg0 holds the initial unit indegrees.
	unitFixedN    int   // len(Fixed) the unit arena was built for; -1 forces a rebuild
	unitStart     []int // arena: rebuilt when the fixed set changes
	unitMembers   []int // arena: flat unit-member storage
	unitOf        []int // arena: node -> unit
	unitSuccStart []int // arena: CSR offsets into unitSuccs
	unitSuccs     []int // arena: dedup'd successor units, retire order
	unitIndeg0    []int // arena: initial indegree per unit
	unitMark      []int // arena: era-stamped dedup marks, one per unit
	unitEra       int

	// Per-walk scheduling scratch. arena: reused every iteration.
	wres       walkResult   // arena: the iteration result walk returns
	table      *sched.Table // reusable reservation table
	indeg      []int        // arena: per-unit remaining dependence count
	doneCycle  []int        // arena: completion cycle per node, 0 = unscheduled
	issueCycle []int        // arena: issue cycle per node
	issued     []bool       // arena: per-unit issued flag
	ready      []int        // arena: the walk's ready list
	entUnit    []int        // arena: Ready-Matrix entry units
	entOpt     []int        // arena: Ready-Matrix entry options
	entW       []float64    // arena: Ready-Matrix entry weights

	// criticalNodes scratch: the final contraction (iteration groups, fixed
	// ISEs, software singles) and its longest-path sweep. arena: reused
	// every iteration.
	cFinalOf   []int // arena: node -> final unit
	cLats      []int // arena: latency per final unit
	cSuccStart []int // arena: CSR offsets, successors
	cSuccs     []int // arena: successor units (duplicates allowed)
	cPredStart []int // arena: CSR offsets, predecessors
	cPreds     []int // arena: predecessor units (duplicates allowed)
	cCurA      []int // arena: successor fill cursors
	cCurB      []int // arena: predecessor fill cursors
	cIndeg     []int // arena: topo indegrees
	cOrder     []int // arena: FIFO topo order
	cDown      []int // arena: downward longest path
	cUp        []int // arena: upward longest path

	// Merit-sweep scratch. arena: reused for every node's hardware shaping.
	vsSet      graph.NodeSet // arena: virtualSubgraph's result set
	vsStack    []int         // arena: virtualSubgraph's DFS stack
	mobMembers []int         // arena: mobility's member extraction buffer
}

// newExplorer returns an empty explorer whose arena growth is counted on
// ise_explore_arena_grows_total.
func newExplorer() *explorer {
	return &explorer{Colony: Colony{Grows: obsExploreArenaGrows}}
}

// reset rebinds a pooled explorer to one restart's inputs, keeping every
// warmed arena. Restart-scoped state (accepted ISEs, priorities, unit
// contraction) is reinitialized; per-iteration scratch needs none — each use
// fully overwrites it.
func (e *explorer) reset(d *dfg.DFG, cfg machine.Config, p Params, rng *rand.Rand, rngSrc *aco.CountingSource, cache *EvalCache, kern *sched.Scheduler, tr *obs.Tracer, tid int) error {
	if err := e.Bind(d, cfg, p); err != nil {
		return err
	}
	e.rng, e.rngSrc = rng, rngSrc
	e.cache, e.kern = cache, kern
	e.tr, e.tid = tr, tid
	e.sp = e.GrowFloats(e.sp, d.Len())
	e.unitFixedN = -1
	e.initPriority()
	return nil
}

// walkGroup is an ISE instruction formed during one iteration's ant walk.
// Groups live as values in walkResult.groups; their member sets are pooled
// across iterations (appendGroup resets a truncated slot's bitmap in place).
type walkGroup struct {
	index   int // position in walkResult.groups, set at creation
	nodes   graph.NodeSet
	cycle   int // issue cycle
	lat     int
	reads   int
	writes  int
	delayNS float64
}

// walkResult captures one iteration's constructed schedule. It is the
// explorer's per-iteration arena: walk returns the same instance every call,
// and each caller consumes it before the next walk.
type walkResult struct {
	tet      int
	chosen   []int // option index per node (-1 for fixed members / none)
	orderPos []int // scheduling position of each node's unit
	groupOf  []int // iteration group per node, -1 if software/fixed
	groups   []walkGroup
	critical graph.NodeSet
	depthNS  []float64 // combinational depth of each HW node within its group
}

// hwDelay returns the delay of hardware option o (global index) of node x.
func (e *explorer) hwDelay(x, o int) float64 {
	return e.D.Nodes[x].HW[o-e.numSW[x]].DelayNS
}

// ensureUnits (re)builds the contraction of the DFG into schedulable units —
// each fixed ISE one unit, every other node its own — plus the per-unit
// successor CSR walk's retire loop consumes. Units only change when an ISE
// is accepted, so this runs once per round, not per iteration.
func (e *explorer) ensureUnits() {
	d := e.D
	n := d.Len()
	if e.unitFixedN == len(e.Fixed) && len(e.unitStart) > 0 && len(e.unitOf) == n {
		return
	}
	e.unitFixedN = len(e.Fixed)
	e.unitOf = e.GrowInts(e.unitOf, n)
	for i := range e.unitOf {
		e.unitOf[i] = -1
	}
	starts := e.unitStart[:0]
	mem := e.unitMembers[:0]
	nu := 0
	for _, f := range e.Fixed {
		starts = append(starts, len(mem))
		mem = f.Nodes.AppendValues(mem)
		for _, v := range mem[starts[nu]:] {
			e.unitOf[v] = nu
		}
		nu++
	}
	for i := 0; i < n; i++ {
		if e.unitOf[i] < 0 {
			e.unitOf[i] = nu
			starts = append(starts, len(mem))
			mem = append(mem, i)
			nu++
		}
	}
	starts = append(starts, len(mem))
	e.unitStart, e.unitMembers = starts, mem

	// Dedup'd successor units per unit, in the first-encounter order of the
	// retire loop (members in unit order, node successors in edge order):
	// consuming this list once per retired unit reproduces the edge-set
	// bookkeeping the per-walk map used to do, with identical ready-list
	// growth order — the order the deterministic random stream depends on.
	e.unitMark = e.GrowInts(e.unitMark, nu)
	e.unitIndeg0 = e.GrowInts(e.unitIndeg0, nu)
	for u := 0; u < nu; u++ {
		e.unitIndeg0[u] = 0
	}
	sstart := e.unitSuccStart[:0]
	succs := e.unitSuccs[:0]
	for u := 0; u < nu; u++ {
		sstart = append(sstart, len(succs))
		e.unitEra++
		era := e.unitEra
		for _, x := range mem[starts[u]:starts[u+1]] {
			for _, v := range d.G.Succs(x) {
				b := e.unitOf[v]
				if b == u || e.unitMark[b] == era {
					continue
				}
				e.unitMark[b] = era
				succs = append(succs, b)
				e.unitIndeg0[b]++
			}
		}
	}
	sstart = append(sstart, len(succs))
	e.unitSuccStart, e.unitSuccs = sstart, succs
}

// appendGroup opens a fresh group slot in res.groups, reusing the pooled
// member-set backing of a previously truncated slot when one is available.
func (e *explorer) appendGroup(res *walkResult) *walkGroup {
	gi := len(res.groups)
	if gi < cap(res.groups) {
		res.groups = res.groups[:gi+1]
	} else {
		res.groups = append(res.groups, walkGroup{})
	}
	g := &res.groups[gi]
	g.index = gi
	g.nodes.Reset(e.D.Len())
	g.cycle, g.lat, g.reads, g.writes, g.delayNS = 0, 0, 0, 0, 0
	return g
}

// walk runs one iteration: it constructs a complete schedule by repeatedly
// selecting an (operation, implementation option) from the Ready-Matrix with
// the chosen probability of Eq. 1 and scheduling it per Figs. 4.3.3/4.3.4.
// The returned result is the explorer's reusable iteration arena, valid
// until the next walk.
//
//alloc:free
func (e *explorer) walk() *walkResult {
	d := e.D
	n := d.Len()
	e.ensureUnits()
	nu := len(e.unitStart) - 1

	res := &e.wres
	res.tet = 0
	res.chosen = e.GrowInts(res.chosen, n)
	res.orderPos = e.GrowInts(res.orderPos, n)
	res.groupOf = e.GrowInts(res.groupOf, n)
	res.depthNS = e.GrowFloats(res.depthNS, n)
	for i := 0; i < n; i++ {
		res.chosen[i] = -1
		res.orderPos[i] = 0
		res.groupOf[i] = -1
		res.depthNS[i] = 0
	}
	res.groups = res.groups[:0]

	if e.table == nil {
		e.table = sched.NewTable(e.Cfg)
	} else {
		e.table.Reuse(e.Cfg)
	}
	table := e.table

	// Unit dependence counts.
	e.indeg = e.GrowInts(e.indeg, nu)
	copy(e.indeg, e.unitIndeg0)
	indeg := e.indeg

	e.doneCycle = e.GrowInts(e.doneCycle, n) // completion cycle, 0 = unscheduled
	e.issueCycle = e.GrowInts(e.issueCycle, n)
	for i := 0; i < n; i++ {
		e.doneCycle[i], e.issueCycle[i] = 0, 0
	}
	doneCycle, issueCycle := e.doneCycle, e.issueCycle
	e.issued = e.growBools(e.issued, nu)
	issued := e.issued
	for u := 0; u < nu; u++ {
		issued[u] = false
	}
	ready := e.ready[:0]
	for u := 0; u < nu; u++ {
		if indeg[u] == 0 {
			ready = append(ready, u)
		}
	}

	pos := 0
	for len(ready) > 0 {
		// Ready-Matrix: every implementation option of every ready unit.
		entU, entO, weights := e.entUnit[:0], e.entOpt[:0], e.entW[:0]
		for _, u := range ready {
			um := e.unitMembers[e.unitStart[u]:e.unitStart[u+1]]
			if len(um) > 1 || !e.Free(um[0]) {
				// Fixed ISE pseudo-operation: single implied option.
				entU, entO = append(entU, u), append(entO, -1)
				weights = append(weights, e.P.InitMeritHW)
				continue
			}
			x := um[0]
			for o := range e.trail[x] {
				w := e.P.Alpha*e.trail[x][o] + (1-e.P.Alpha)*e.merit[x][o] + e.P.Lambda*e.sp[x]
				entU, entO = append(entU, u), append(entO, o)
				weights = append(weights, w)
			}
		}
		e.entUnit, e.entOpt, e.entW = entU, entO, weights
		var pickIdx int
		if e.P.Greedy {
			for i := 1; i < len(weights); i++ {
				if weights[i] > weights[pickIdx] {
					pickIdx = i
				}
			}
		} else {
			pickIdx = aco.SelectWeighted(e.rng, weights)
		}
		u, pickOpt := entU[pickIdx], entO[pickIdx]
		um := e.unitMembers[e.unitStart[u]:e.unitStart[u+1]]

		// LTS: latest completion among predecessors (0 if none).
		lts, lp := 0, -1
		for _, x := range um {
			for _, p := range d.G.Preds(x) {
				if e.unitOf[p] == u {
					continue
				}
				if doneCycle[p] >= lts {
					lts = doneCycle[p]
					lp = p
				}
			}
		}

		switch {
		case pickOpt < 0:
			// Fixed ISE group.
			f := e.Fixed[e.fixedGroupOf[um[0]]]
			cts := lts + 1
			for !table.FitsNewISE(cts, f.Cycles, f.In, f.Out) {
				cts++
			}
			table.ReserveNewISE(cts, f.Cycles, f.In, f.Out)
			for _, x := range um {
				issueCycle[x] = cts
				doneCycle[x] = cts + f.Cycles - 1
				res.orderPos[x] = pos
			}
		case !e.IsHWOption(um[0], pickOpt):
			// Software Operation-Scheduling (Fig. 4.3.3).
			x := um[0]
			class := d.Nodes[x].SW[pickOpt].Class
			reads, writes := len(d.Nodes[x].Inputs), 0
			if _, ok := d.Nodes[x].Instr.Defs(); ok {
				writes = 1
			}
			cts := lts + 1
			for !table.FitsSW(cts, class, reads, writes) {
				cts++
			}
			table.ReserveSW(cts, class, reads, writes)
			res.chosen[x] = pickOpt
			issueCycle[x] = cts
			doneCycle[x] = cts + d.Nodes[x].SW[pickOpt].Cycles - 1
			res.orderPos[x] = pos
		default:
			// Hardware Operation-Scheduling (Fig. 4.3.4): try to pack with
			// the latest parent's iteration ISE, else open a new one.
			x := um[0]
			e.scheduleHW(res, table, x, pickOpt, lts, lp, doneCycle, issueCycle)
			res.orderPos[x] = pos
		}
		pos++

		// Retire the unit, release successors. The CSR list visits each
		// dependent unit exactly once, in the first-encounter order the
		// per-walk edge map used to consume — preserving the ready list's
		// growth order and with it the deterministic random stream.
		issued[u] = true
		ready = removeUnit(ready, u)
		for _, b := range e.unitSuccs[e.unitSuccStart[u]:e.unitSuccStart[u+1]] {
			if issued[b] {
				continue
			}
			indeg[b]--
			if indeg[b] == 0 {
				ready = append(ready, b)
			}
		}
	}
	e.ready = ready

	for _, c := range doneCycle {
		if c > res.tet {
			res.tet = c
		}
	}
	e.criticalNodes(res)
	return res
}

// scheduleHW implements Fig. 4.3.4: if the latest parent lp is a member of a
// hardware group formed this iteration, try to pack x into that group at the
// group's issue cycle; otherwise issue a fresh single-operation ISE after
// lts.
func (e *explorer) scheduleHW(res *walkResult, table *sched.Table, x, opt, lts, lp int, doneCycle, issueCycle []int) {
	delay := e.hwDelay(x, opt)
	if lp >= 0 && res.groupOf[lp] >= 0 {
		g := &res.groups[res.groupOf[lp]]
		c := g.cycle
		if e.tryPack(res, table, g, x, opt, delay, c, doneCycle, issueCycle) {
			res.chosen[x] = opt
			return
		}
	}
	// New single-op ISE.
	lat := sched.CyclesForDelay(delay)
	g := e.appendGroup(res)
	g.nodes.Add(x)
	reads, writes := e.countIn(g.nodes), e.countOut(g.nodes)
	cts := lts + 1
	for !table.FitsNewISE(cts, lat, reads, writes) {
		cts++
	}
	table.ReserveNewISE(cts, lat, reads, writes)
	g.cycle, g.lat, g.reads, g.writes, g.delayNS = cts, lat, reads, writes, delay
	res.groupOf[x] = g.index
	res.chosen[x] = opt
	res.depthNS[x] = delay
	issueCycle[x] = cts
	doneCycle[x] = cts + lat - 1
}

// tryPack attempts to grow group g with node x at the group's issue cycle c.
// The member set is grown in place and rolled back on failure; x cannot have
// scheduled consumers (its own unit is only being issued now), so the grown
// set is interchangeable with the pre-grown one for every membership test
// below.
func (e *explorer) tryPack(res *walkResult, table *sched.Table, g *walkGroup, x, opt int, delay float64, c int, doneCycle, issueCycle []int) bool {
	d := e.D
	// Every external operand of x must be available before c.
	for _, p := range d.G.Preds(x) {
		if g.nodes.Contains(p) {
			continue
		}
		if doneCycle[p] >= c {
			return false
		}
	}
	// Combinational depth of x inside the grown group.
	depth := 0.0
	for _, p := range d.G.Preds(x) {
		if g.nodes.Contains(p) && res.depthNS[p] > depth {
			depth = res.depthNS[p]
		}
	}
	depth += delay
	newDelay := g.delayNS
	if depth > newDelay {
		newDelay = depth
	}
	newLat := sched.CyclesForDelay(newDelay)
	if e.P.MaxISECycles > 0 && newLat > e.P.MaxISECycles {
		return false
	}
	g.nodes.Add(x)
	newReads, newWrites := e.countIn(g.nodes), e.countOut(g.nodes)
	if !table.FitsISEUpdate(c, g.lat, newLat, g.reads, newReads, g.writes, newWrites) {
		g.nodes.Remove(x)
		return false
	}
	// Extending the latency must not invalidate already scheduled consumers
	// of the group's results.
	if newLat > g.lat {
		members := g.nodes.AppendValues(e.ioMembers[:0])
		e.ioMembers = members
		for _, m := range members {
			for _, y := range d.Nodes[m].DataSuccs {
				if g.nodes.Contains(y) || doneCycle[y] == 0 {
					continue
				}
				if issueCycle[y] < c+newLat {
					g.nodes.Remove(x)
					return false
				}
			}
		}
	}
	table.UpdateISE(c, g.lat, newLat, g.reads, newReads, g.writes, newWrites)
	g.lat = newLat
	g.reads, g.writes = newReads, newWrites
	g.delayNS = newDelay
	res.groupOf[x] = g.index
	res.depthNS[x] = depth
	issueCycle[x] = c
	done := c + newLat - 1
	members := g.nodes.AppendValues(e.ioMembers[:0])
	e.ioMembers = members
	for _, m := range members {
		doneCycle[m] = done
	}
	return true
}

// criticalNodes computes the latency-weighted critical path of the
// iteration's contracted schedule graph (walk groups, fixed ISEs, software
// nodes) and marks member nodes in res.critical. Duplicate contracted edges
// (several node edges between one unit pair) are kept: the indegree
// bookkeeping counts them consistently and the longest-path sweeps take
// maxima, so deduplication would only cost time.
func (e *explorer) criticalNodes(res *walkResult) {
	d := e.D
	n := d.Len()
	// Final contraction: iteration groups override the unit view for free
	// HW nodes.
	e.cFinalOf = e.GrowInts(e.cFinalOf, n)
	finalOf := e.cFinalOf
	for i := range finalOf {
		finalOf[i] = -1
	}
	lats := e.cLats[:0]
	for gi := range res.groups {
		g := &res.groups[gi]
		members := g.nodes.AppendValues(e.ioMembers[:0])
		e.ioMembers = members
		for _, v := range members {
			finalOf[v] = len(lats)
		}
		lats = append(lats, g.lat)
	}
	for _, f := range e.Fixed {
		members := f.Nodes.AppendValues(e.ioMembers[:0])
		e.ioMembers = members
		for _, v := range members {
			finalOf[v] = len(lats)
		}
		lats = append(lats, f.Cycles)
	}
	for i := 0; i < n; i++ {
		if finalOf[i] < 0 {
			lat := 1
			if res.chosen[i] >= 0 && !e.IsHWOption(i, res.chosen[i]) {
				lat = d.Nodes[i].SW[res.chosen[i]].Cycles
			}
			finalOf[i] = len(lats)
			lats = append(lats, lat)
		}
	}
	e.cLats = lats
	nu := len(lats)

	// Contracted edge CSR (with duplicates), built by counting sort.
	e.cSuccStart = e.GrowInts(e.cSuccStart, nu+1)
	e.cPredStart = e.GrowInts(e.cPredStart, nu+1)
	sStart, pStart := e.cSuccStart, e.cPredStart
	for i := 0; i <= nu; i++ {
		sStart[i], pStart[i] = 0, 0
	}
	total := 0
	for u := 0; u < n; u++ {
		a := finalOf[u]
		for _, v := range d.G.Succs(u) {
			if b := finalOf[v]; a != b {
				sStart[a+1]++
				pStart[b+1]++
				total++
			}
		}
	}
	for i := 0; i < nu; i++ {
		sStart[i+1] += sStart[i]
		pStart[i+1] += pStart[i]
	}
	e.cSuccs = e.GrowInts(e.cSuccs, total)
	e.cPreds = e.GrowInts(e.cPreds, total)
	succs, preds := e.cSuccs, e.cPreds
	e.cCurA = e.GrowInts(e.cCurA, nu)
	e.cCurB = e.GrowInts(e.cCurB, nu)
	curA, curB := e.cCurA, e.cCurB
	copy(curA, sStart[:nu])
	copy(curB, pStart[:nu])
	for u := 0; u < n; u++ {
		a := finalOf[u]
		for _, v := range d.G.Succs(u) {
			if b := finalOf[v]; a != b {
				succs[curA[a]] = b
				curA[a]++
				preds[curB[b]] = a
				curB[b]++
			}
		}
	}

	// FIFO topological order over the contraction.
	e.cIndeg = e.GrowInts(e.cIndeg, nu)
	e.cOrder = e.GrowInts(e.cOrder, nu)
	indeg, order := e.cIndeg, e.cOrder
	qt := 0
	for m := 0; m < nu; m++ {
		indeg[m] = pStart[m+1] - pStart[m]
		if indeg[m] == 0 {
			order[qt] = m
			qt++
		}
	}
	for qh := 0; qh < qt; qh++ {
		m := order[qh]
		for _, s := range succs[sStart[m]:sStart[m+1]] {
			indeg[s]--
			if indeg[s] == 0 {
				order[qt] = s
				qt++
			}
		}
	}

	e.cDown = e.GrowInts(e.cDown, nu)
	e.cUp = e.GrowInts(e.cUp, nu)
	down, up := e.cDown, e.cUp
	best := 0
	for i := 0; i < nu; i++ {
		m := order[i]
		in := 0
		for _, p := range preds[pStart[m]:pStart[m+1]] {
			if down[p] > in {
				in = down[p]
			}
		}
		down[m] = in + lats[m]
		if down[m] > best {
			best = down[m]
		}
	}
	for i := nu - 1; i >= 0; i-- {
		m := order[i]
		out := 0
		for _, s := range succs[sStart[m]:sStart[m+1]] {
			if up[s] > out {
				out = up[s]
			}
		}
		up[m] = out + lats[m]
	}
	res.critical.Reset(n)
	for v := 0; v < n; v++ {
		m := finalOf[v]
		if down[m]+up[m]-lats[m] == best {
			res.critical.Add(v)
		}
	}
}

// removeUnit deletes unit v from s in place, preserving the relative order
// of the surviving units: the ready list's order feeds the Ready-Matrix and
// through it the deterministic random stream. In-place compaction is safe —
// the ready list lives only in walk's frame, is reassigned with the return
// value, and has no other alias.
func removeUnit(s []int, v int) []int {
	for i, x := range s {
		if x == v {
			//lint:ignore sliceclobber ready list is walk-local; the caller reassigns the result and holds no other alias
			return append(s[:i], s[i+1:]...)
		}
	}
	return s
}
