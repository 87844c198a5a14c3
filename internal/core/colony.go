package core

import (
	"fmt"

	"repro/internal/aco"
	"repro/internal/dfg"
	"repro/internal/graph"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/sched"
)

// Colony is the ant-colony machinery both exploration engines share: the
// multiple-issue explorer of this package and the single-issue baseline of
// internal/baseline embed it. It owns
//
//   - the accepted ISEs of the running restart;
//   - the trail and merit option tables with their seeding, the α-weights
//     of Eq. 1/3, the P_END convergence test and the Fig. 4.3.5 trail
//     update;
//   - the topological-order cache, era-marked IN/OUT counting and the
//     subgraph delay/area sweep;
//   - the merit function's software part, cases 2–3 of Fig. 4.3.7, the
//     per-option case-4 shaping and normalization;
//   - the Make-Convex/port/latency shaping of a converged selection into
//     ISE candidates.
//
// The engines differ only in what they wrap around it: how an iteration
// draws options, what it measures, and how case 4 defines the software
// cost and the cycle budget of a subgraph. Every per-iteration method is a
// direct call on the embedded value, so the engines' zero-allocation roots
// reach the shared code statically.
//
// A Colony is pure scratch between restarts: Bind rebinds it to one
// restart's inputs and keeps every warmed arena, so which worker ran which
// restart never affects a result.
type Colony struct {
	// D, Cfg and P are the bound restart's inputs.
	D   *dfg.DFG
	Cfg machine.Config
	P   Params
	// Grows counts arena (re)allocations; the embedding engine points it
	// at its own ise_*_arena_grows_total counter.
	Grows *obs.Counter

	// Fixed are the ISEs accepted in earlier rounds; their members no
	// longer make choices.
	Fixed        []*ISE
	fixedGroupOf []int // arena: node -> index into Fixed, or -1

	// Option tables for free nodes. Options are indexed software first
	// (numSW of them), hardware after. The rows slice two flat backing
	// arrays sized once per DFG; InitTables re-seeds the values each round.
	trail [][]float64 // arena: rows over trailBuf, rebuilt with it
	merit [][]float64 // arena: rows over meritBuf, rebuilt with it
	numSW []int
	// trailBuf and meritBuf back every trail/merit row. arena: resliced by
	// InitTables, owned by the rows for the colony's lifetime.
	trailBuf, meritBuf []float64
	tablesFor          *dfg.DFG // DFG the table structure was built for

	// topo caches the DFG's topological order and topoPos each node's
	// position in it.
	topo    []int
	topoPos []int
	topoFor *dfg.DFG // DFG the topological cache was built for

	// depthF is the subgraph sweep's longest-path scratch. Entries are
	// written before they are read in topological order, so no reset is
	// needed between calls.
	depthF []float64 // arena: SubgraphMetrics' depths

	// IN/OUT counting scratch: ioMark era-stamps dedup keys (producer node
	// id, or Len()+register for live-ins), ioMembers holds the queried set's
	// members. Replaces dfg.In/Out's per-call map on the hot paths.
	ioMark    []int // arena: era-stamped operand dedup marks
	ioMembers []int // arena: member extraction buffer
	ioEra     int
	ioMarkFor *dfg.DFG // DFG ioMark was sized for

	vsMembers []int         // arena: MembersInTopoOrder's result
	hwCycles  []int         // arena: per-option subgraph cycles
	hwAreas   []float64     // arena: per-option subgraph areas
	spw       []float64     // arena: Weights' result
	cands     []*ISE        // arena: Candidates' result
	convex    graph.Scratch // reusable convexity-check traversal buffers
}

// Bind rebinds the colony to one restart's inputs: no accepted ISEs, every
// node free. Per-DFG caches (topological order, table structure, IN mark
// sizing) survive across restarts on the same DFG. A cyclic DFG is an
// error, reported here before any exploration state is touched.
func (c *Colony) Bind(d *dfg.DFG, cfg machine.Config, p Params) error {
	if c.topoFor != d {
		order, err := d.G.TopoOrder()
		if err != nil {
			return fmt.Errorf("explore %s: %w", d.Name, err)
		}
		c.topo = order
		c.topoPos = c.GrowInts(c.topoPos, len(order))
		for i, v := range order {
			c.topoPos[v] = i
		}
		c.topoFor = d
	}
	c.D, c.Cfg, c.P = d, cfg, p
	c.Fixed = c.Fixed[:0]
	c.fixedGroupOf = c.GrowInts(c.fixedGroupOf, d.Len())
	for i := range c.fixedGroupOf {
		c.fixedGroupOf[i] = -1
	}
	return nil
}

// Accept fixes ise: it joins Fixed and its members stop making choices.
func (c *Colony) Accept(ise *ISE) {
	c.Fixed = append(c.Fixed, ise)
	for _, v := range ise.Nodes.Values() {
		c.fixedGroupOf[v] = len(c.Fixed) - 1
	}
}

// Free reports whether node x still makes choices (is in no accepted ISE).
func (c *Colony) Free(x int) bool { return c.fixedGroupOf[x] < 0 }

// IsHWOption reports whether option index o of node x selects hardware.
func (c *Colony) IsHWOption(x, o int) bool { return o >= c.numSW[x] }

// InitTables seeds trail and merit for every free node at the start of a
// round (trail 0; merit InitMeritSW software / InitMeritHW hardware). The
// row structure is built once per DFG over two flat backing arrays; later
// rounds only re-seed the values, so round boundaries allocate nothing. The
// rows and backing arrays are grow-on-demand arenas: rebinding to a smaller
// (or equal, after presize) DFG reslices the warm buffers instead of
// reallocating.
func (c *Colony) InitTables() {
	d := c.D
	n := d.Len()
	if c.tablesFor != d {
		c.numSW = c.GrowInts(c.numSW, n)
		total := 0
		for i := 0; i < n; i++ {
			node := d.Nodes[i]
			c.numSW[i] = len(node.SW)
			total += len(node.SW) + len(node.HW)
		}
		c.trail = c.growRows(c.trail, n)
		c.merit = c.growRows(c.merit, n)
		c.trailBuf = c.GrowFloats(c.trailBuf, total)
		c.meritBuf = c.GrowFloats(c.meritBuf, total)
		off := 0
		for i := 0; i < n; i++ {
			opts := c.numSW[i] + len(d.Nodes[i].HW)
			c.trail[i] = c.trailBuf[off : off+opts : off+opts]
			c.merit[i] = c.meritBuf[off : off+opts : off+opts]
			off += opts
		}
		c.tablesFor = d
	}
	for i := 0; i < n; i++ {
		for o := range c.trail[i] {
			c.trail[i][o] = 0
			if o < c.numSW[i] {
				c.merit[i][o] = c.P.InitMeritSW
			} else {
				c.merit[i][o] = c.P.InitMeritHW
			}
		}
	}
}

// Weights returns node x's combined trail/merit option weights — the
// selected-probability numerators of Eq. 3 (Eq. 1 without its priority
// term). The result aliases the colony's arena and is valid until the next
// call.
func (c *Colony) Weights(x int) []float64 {
	w := c.GrowFloats(c.spw, len(c.trail[x]))
	for o := range w {
		w[o] = c.P.Alpha*c.trail[x][o] + (1-c.P.Alpha)*c.merit[x][o]
	}
	c.spw = w
	return w
}

// ConvergedNow checks the P_END condition of Eq. 3/4 over all free nodes.
//
//alloc:free
func (c *Colony) ConvergedNow() bool {
	for x := 0; x < c.D.Len(); x++ {
		if !c.Free(x) || len(c.trail[x]) <= 1 {
			continue // single option is trivially converged
		}
		share, _ := aco.MaxShare(c.Weights(x))
		if share < c.P.PEnd {
			return false
		}
	}
	return true
}

// UpdateTrail applies Fig. 4.3.5 to every free node given the iteration's
// option choices: after an iteration whose execution time improved on (or
// matched) the best so far, selected options gain ρ1 and unselected options
// lose ρ2; after a worsening iteration selected options lose ρ3 and
// unselected options regain ρ4. When prevOrder (the previous iteration's
// scheduling positions) is given, every option of an operation whose
// position in orderPos moved earlier additionally loses ρ5 after a
// worsening iteration. Trails are clamped at zero.
//
//alloc:free
func (c *Colony) UpdateTrail(chosen []int, improved bool, orderPos, prevOrder []int) {
	p := &c.P
	for x := 0; x < c.D.Len(); x++ {
		if !c.Free(x) {
			continue
		}
		movedEarlier := prevOrder != nil && orderPos[x] < prevOrder[x]
		for o := range c.trail[x] {
			sel := chosen[x] == o
			switch {
			case improved && sel:
				c.trail[x][o] += p.Rho1
			case improved:
				c.trail[x][o] -= p.Rho2
			case sel:
				c.trail[x][o] -= p.Rho3
			default:
				c.trail[x][o] += p.Rho4
			}
			if !improved && movedEarlier {
				c.trail[x][o] -= p.Rho5
			}
			if c.trail[x][o] < 0 {
				c.trail[x][o] = 0
			}
		}
	}
}

// SoftwareMerit applies the software part of the merit function (Eq. 3):
// each software option's merit is scaled by its execution time.
func (c *Colony) SoftwareMerit(x int) {
	node := c.D.Nodes[x]
	for i := 0; i < c.numSW[x]; i++ {
		c.merit[x][i] *= float64(node.SW[i].Cycles)
	}
}

// NormalizeMerit rescales node x's merit row to a fixed total, which keeps
// operation-vs-operation selection fair and the multiplicative dynamics
// bounded (§4.3 after step 8).
func (c *Colony) NormalizeMerit(x int) {
	aco.Normalize(c.merit[x], 100*float64(len(c.merit[x])))
}

// LegalSubgraph applies cases 2 and 3 of Fig. 4.3.7 to the hardware options
// of x, whose virtual subgraph is vs: a singleton subgraph cannot shorten
// anything (damped by BetaSize); a subgraph violating the register ports
// (BetaIO) or convexity (BetaConvex) is damped for each violation. It
// reports whether vs passed, i.e. whether case 4 should shape the options.
func (c *Colony) LegalSubgraph(x int, vs graph.NodeSet) bool {
	p := &c.P
	row := c.merit[x][c.numSW[x]:]
	if vs.Len() == 1 {
		scaleRow(row, p.BetaSize)
		return false
	}
	legal := true
	if c.countIn(vs) > c.Cfg.ReadPorts || c.countOut(vs) > c.Cfg.WritePorts {
		scaleRow(row, p.BetaIO)
		legal = false
	}
	if !c.D.G.IsConvexScratch(vs, &c.convex) {
		scaleRow(row, p.BetaConvex)
		legal = false
	}
	return legal
}

func scaleRow(row []float64, f float64) {
	for j := range row {
		row[j] *= f
	}
}

// OptionMetrics measures vs once per hardware option of x — x takes that
// option, every other member keeps its choice in chosen — and records each
// option's cycles and area for ShapeHW. It returns the fewest cycles and the
// largest area over the options. members must hold vs's members in
// topological order (MembersInTopoOrder).
func (c *Colony) OptionMetrics(vs graph.NodeSet, members, chosen []int, x int) (minCycles int, maxArea float64) {
	hw := c.D.Nodes[x].HW
	c.hwCycles = c.GrowInts(c.hwCycles, len(hw))
	c.hwAreas = c.GrowFloats(c.hwAreas, len(hw))
	minCycles = 1 << 30
	for j := range hw {
		dly, area := c.SubgraphMetrics(vs, members, chosen, x, j)
		cyc := sched.CyclesForDelay(dly)
		c.hwCycles[j], c.hwAreas[j] = cyc, area
		if cyc < minCycles {
			minCycles = cyc
		}
		if area > maxArea {
			maxArea = area
		}
	}
	return minCycles, maxArea
}

// ShapeHW applies case 4 of Fig. 4.3.7 to x's hardware options, using the
// cycles and areas the last OptionMetrics recorded. Options beyond the
// pipestage budget (MaxISECycles) are damped like a constraint violation.
// The others are scaled by their cycle saving over swCycles, the cost of
// the subgraph in software. Then options within budget cycles are rewarded
// for small area, and the rest are damped by how far they overshoot it.
func (c *Colony) ShapeHW(x, swCycles, budget int, maxArea float64) {
	p := &c.P
	row := c.merit[x][c.numSW[x]:]
	for j := range row {
		m := &row[j]
		cyc := c.hwCycles[j]
		if p.MaxISECycles > 0 && cyc > p.MaxISECycles {
			*m *= p.BetaIO
			continue
		}
		saving := swCycles - cyc
		switch {
		case saving > 0:
			*m *= float64(1 + saving)
		case saving < 0:
			*m /= float64(1 - saving)
		}
		if cyc <= budget {
			if c.hwAreas[j] > 0 {
				*m *= maxArea / c.hwAreas[j]
			}
		} else {
			*m /= float64(1 + cyc - budget)
		}
	}
}

// SubgraphMetrics measures subgraph vs's combinational depth and area. Each
// member uses its hardware option in chosen (its first cell when it chose
// software or nothing), except that member override uses option hwIdx; pass
// override -1 to measure the choices as they are. members must hold vs's
// members in topological order — the float accumulation order the results
// depend on.
func (c *Colony) SubgraphMetrics(vs graph.NodeSet, members, chosen []int, override, hwIdx int) (delayNS, areaUM2 float64) {
	d := c.D
	c.depthF = c.GrowFloats(c.depthF, d.Len())
	depth := c.depthF
	for _, v := range members {
		in := 0.0
		for _, p := range d.G.Preds(v) {
			if vs.Contains(p) && depth[p] > in {
				in = depth[p]
			}
		}
		j := hwIdx
		if v != override {
			j = 0
			if chosen[v] >= 0 && c.IsHWOption(v, chosen[v]) {
				j = chosen[v] - c.numSW[v]
			}
		}
		cell := d.Nodes[v].HW[j]
		depth[v] = in + cell.DelayNS
		if depth[v] > delayNS {
			delayNS = depth[v]
		}
		areaUM2 += cell.AreaUM2
	}
	return delayNS, areaUM2
}

// MembersInTopoOrder returns the members of vs sorted by topological
// position, so subgraph longest-path sweeps touch |vs| nodes instead of
// rescanning the whole DFG. The result aliases the colony's arena and is
// valid until the next call.
func (c *Colony) MembersInTopoOrder(vs graph.NodeSet) []int {
	members := vs.AppendValues(c.vsMembers[:0])
	c.SortByTopo(members)
	c.vsMembers = members
	return members
}

// SortByTopo sorts nodes in place by topological position. It is an
// insertion sort: member lists are small and nearly sorted already (node
// ids follow program order), and unlike sort.Slice it allocates nothing.
func (c *Colony) SortByTopo(nodes []int) {
	for i := 1; i < len(nodes); i++ {
		v := nodes[i]
		j := i - 1
		for j >= 0 && c.topoPos[nodes[j]] > c.topoPos[v] {
			nodes[j+1] = nodes[j]
			j--
		}
		nodes[j+1] = v
	}
}

// countIn is dfg.In without the per-call map: the number of distinct
// register values s consumes from outside itself, deduplicated with
// era-stamped marks (external producers by node id, live-in operands by
// register).
func (c *Colony) countIn(s graph.NodeSet) int {
	d := c.D
	n := d.Len()
	if c.ioMarkFor != d {
		need := n
		for i := range d.Nodes {
			for _, src := range d.Nodes[i].Inputs {
				if src.Producer < 0 && n+int(src.Reg) >= need {
					need = n + int(src.Reg) + 1
				}
			}
		}
		// Stale marks hold earlier eras and never collide: ioEra only grows.
		c.ioMark = c.GrowInts(c.ioMark, need)
		c.ioMarkFor = d
	}
	c.ioEra++
	era := c.ioEra
	members := s.AppendValues(c.ioMembers[:0])
	c.ioMembers = members
	in := 0
	for _, id := range members {
		for _, src := range d.Nodes[id].Inputs {
			if src.Producer >= 0 && s.Contains(src.Producer) {
				continue // internal value
			}
			idx := n + int(src.Reg)
			if src.Producer >= 0 {
				idx = src.Producer // identified by producer alone
			}
			if c.ioMark[idx] != era {
				c.ioMark[idx] = era
				in++
			}
		}
	}
	return in
}

// countOut is dfg.Out without the member-slice allocation: the number of
// nodes in s whose value escapes s.
func (c *Colony) countOut(s graph.NodeSet) int {
	d := c.D
	members := s.AppendValues(c.ioMembers[:0])
	c.ioMembers = members
	out := 0
	for _, id := range members {
		node := d.Nodes[id]
		escapes := node.LiveOut
		if !escapes {
			for _, succ := range node.DataSuccs {
				if !s.Contains(succ) {
					escapes = true
					break
				}
			}
		}
		if escapes {
			out++
		}
	}
	return out
}

// Candidates shapes the converged selection into ISE candidates: the free,
// eligible nodes whose most probable option is hardware are split into
// connected components, each made convex (Make-Convex), trimmed to the
// register ports, the pipestage budget and the ports again, and split into
// connected parts; every part of at least two members — a single operation
// cannot beat its one-cycle software form — becomes a candidate. Candidates
// come in a fixed order; pricing them is the engine's business. Candidates
// runs once per round, off the zero-allocation contract. The result
// aliases the colony's arena and is valid until the next call.
func (c *Colony) Candidates() []*ISE {
	d := c.D
	taken := graph.NewNodeSet(d.Len())
	optOf := map[int]int{}
	for x := 0; x < d.Len(); x++ {
		if !c.Free(x) || !d.Nodes[x].ISEEligible() {
			continue
		}
		_, o := aco.MaxShare(c.Weights(x))
		if c.IsHWOption(x, o) {
			taken.Add(x)
			optOf[x] = o - c.numSW[x]
		}
	}
	if taken.Empty() {
		return nil
	}
	out := c.cands[:0]
	for _, comp := range d.G.ConnectedComponents(taken) {
		for _, convex := range MakeConvex(d, comp) {
			feasible := TrimPorts(d, convex, c.Cfg.ReadPorts, c.Cfg.WritePorts)
			feasible = TrimLatency(d, feasible, optOf, c.P.MaxISECycles)
			feasible = TrimPorts(d, feasible, c.Cfg.ReadPorts, c.Cfg.WritePorts)
			for _, part := range d.G.ConnectedComponents(feasible) {
				if part.Len() >= 2 {
					out = append(out, NewISE(d, part, optOf))
				}
			}
		}
	}
	c.cands = out
	return out
}
