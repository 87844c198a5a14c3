package core

import "repro/internal/graph"

// virtualSubgraph returns vSx: operation x grouped with every reachable
// operation that chose a hardware implementation option in this iteration
// (Hardware-Grouping, §4.3). Reachability walks dependence edges in both
// directions but only through hardware-chosen nodes. The returned set is the
// explorer's arena and is valid until the next call.
func (e *explorer) virtualSubgraph(res *walkResult, x int) graph.NodeSet {
	d := e.D
	e.vsSet.Reset(d.Len())
	vs := &e.vsSet
	vs.Add(x)
	stack := append(e.vsStack[:0], x)
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for dir := 0; dir < 2; dir++ {
			nbs := d.G.Succs(v)
			if dir == 1 {
				nbs = d.G.Preds(v)
			}
			for _, nb := range nbs {
				if vs.Contains(nb) || !e.Free(nb) ||
					res.chosen[nb] < 0 || !e.IsHWOption(nb, res.chosen[nb]) {
					continue
				}
				vs.Add(nb)
				stack = append(stack, nb)
			}
		}
	}
	e.vsStack = stack
	//lint:ignore arenaescape callers consume the subgraph before the next virtualSubgraph call
	return e.vsSet
}

// swDepth returns the longest dependence chain within vs at unit software
// latency — the serial cycle count the subgraph costs when not packed.
// members must hold vs's members in topological order.
func (e *explorer) swDepth(vs graph.NodeSet, members []int) int {
	d := e.D
	e.depthI = e.GrowInts(e.depthI, d.Len())
	depth := e.depthI
	best := 0
	for _, v := range members {
		in := 0
		for _, p := range d.G.Preds(v) {
			if vs.Contains(p) && depth[p] > in {
				in = depth[p]
			}
		}
		depth[v] = in + 1
		if depth[v] > best {
			best = depth[v]
		}
	}
	return best
}

// mobility returns the ASAP/ALAP slack window (in cycles, ≥1) of the first
// operation of vs against the iteration's schedule length — the paper's
// maximal allowable execution cycle Max_AEC (Fig. 4.3.8): a non-critical
// subgraph may take up to this many cycles without hurting the makespan.
func (e *explorer) mobility(res *walkResult, vs graph.NodeSet) int {
	// First operation: the member with the smallest ASAP.
	members := vs.AppendValues(e.mobMembers[:0])
	e.mobMembers = members
	first, bestASAP := -1, 1<<30
	for _, v := range members {
		if e.asap[v] < bestASAP {
			bestASAP, first = e.asap[v], v
		}
	}
	if first < 0 {
		return 1
	}
	alap := res.tet - e.tail[first] + 1
	aec := alap - e.asap[first] + 1
	if aec < 1 {
		aec = 1
	}
	return aec
}

// refreshMobility recomputes the unit-latency ASAP and tail arrays shared by
// every mobility query of one iteration.
func (e *explorer) refreshMobility() {
	d := e.D
	n := d.Len()
	e.asap = e.GrowInts(e.asap, n)
	e.tail = e.GrowInts(e.tail, n)
	order := e.topo
	for _, v := range order {
		in := 0
		for _, p := range d.G.Preds(v) {
			if e.asap[p] > in {
				in = e.asap[p]
			}
		}
		e.asap[v] = in + 1
	}
	for i := len(order) - 1; i >= 0; i-- {
		v := order[i]
		out := 0
		for _, s := range d.G.Succs(v) {
			if e.tail[s] > out {
				out = e.tail[s]
			}
		}
		e.tail[v] = out + 1
	}
}

// meritUpdate implements the merit function (Eq. 3 software part and
// Fig. 4.3.7 hardware part) followed by per-operation normalization.
//
//alloc:free
func (e *explorer) meritUpdate(res *walkResult) {
	d := e.D
	e.refreshMobility()
	for x := 0; x < d.Len(); x++ {
		if !e.Free(x) {
			continue
		}
		e.SoftwareMerit(x)
		if len(d.Nodes[x].HW) > 0 {
			e.hwMerit(res, x)
		}
		e.NormalizeMerit(x)
	}
}

// hwMerit applies the four cases of Fig. 4.3.7 to every hardware option of
// operation x: the critical-path boost (case 1) here, the shared size and
// constraint cases (2–3), then location-aware shaping (case 4) — a
// subgraph's software cost is its dependence depth, and its cycle budget is
// the fastest option's cycles on the critical path, Max_AEC off it.
func (e *explorer) hwMerit(res *walkResult, x int) {
	p := e.P
	if res.critical.Contains(x) && !p.NoCriticalPath {
		row := e.merit[x][e.numSW[x]:]
		for j := range row {
			row[j] /= p.BetaCP
		}
	}
	vs := e.virtualSubgraph(res, x)
	if !e.LegalSubgraph(x, vs) {
		return
	}
	members := e.MembersInTopoOrder(vs)
	swDepth := e.swDepth(vs, members)
	minCycles, maxArea := e.OptionMetrics(vs, members, res.chosen, x)
	onCritical := false
	for _, v := range members {
		if res.critical.Contains(v) {
			onCritical = true
			break
		}
	}
	if p.NoCriticalPath {
		onCritical = false
	}
	if p.NoMaxAEC {
		onCritical = true
	}
	budget := minCycles
	if !onCritical {
		budget = e.mobility(res, vs)
	}
	e.ShapeHW(x, swDepth, budget, maxArea)
}
