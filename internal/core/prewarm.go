package core

import "repro/internal/dfg"

// Arena warmup amortization (DESIGN.md §13): a flow run explores its blocks
// from hottest to coldest, so a per-worker explorer acquired for a small
// block and later rebound to a bigger one regrows half its arenas — the
// "+11% Headline allocs" regression ROADMAP records against the per-block
// pool. Scratch.Prewarm computes the arena bounds of the largest block up
// front and Acquire presizes every counter-tracked arena to those bounds, so
// a worker pays warmup once for the whole run regardless of the order blocks
// reach it.

// arenaBounds derives the presize bounds one DFG imposes on an explorer:
// node count, total option-table entries, the widest per-node option row,
// total edge endpoints (the criticalNodes CSR bound), and the IN-counting
// mark space (nodes plus the highest live-in register, mirroring countIn).
func arenaBounds(d *dfg.DFG) (n, totalOpts, maxRow, edges, ioNeed int) {
	n = d.Len()
	ioNeed = n
	for i := 0; i < n; i++ {
		node := d.Nodes[i]
		opts := len(node.SW) + len(node.HW)
		totalOpts += opts
		if opts > maxRow {
			maxRow = opts
		}
		edges += len(d.G.Succs(i))
		for _, src := range node.Inputs {
			if src.Producer < 0 && n+int(src.Reg) >= ioNeed {
				ioNeed = n + int(src.Reg) + 1
			}
		}
	}
	return n, totalOpts, maxRow, edges, ioNeed
}

// presize grows every counter-tracked arena of the explorer to the given
// bounds. Growing here counts as ordinary warmup (the grow helpers increment
// ise_explore_arena_grows_total); the payoff is that every later exploration
// of a DFG within the bounds reslices warm memory and grows nothing — the
// property TestScratchPrewarmPinsArenaGrows pins. The per-DFG table and
// I/O-mark bindings are invalidated so the next Bind/InitTables/countIn rebuilds
// row structure over the (possibly replaced) backing arrays; the rebuild is
// pure reslicing once the arrays are warm.
//
//alloc:amortized prewarm pass; allocates only while arenas grow to the run's largest block
func (e *explorer) presize(n, totalOpts, maxRow, edges, ioNeed int) {
	e.fixedGroupOf = e.GrowInts(e.fixedGroupOf, n)
	e.topoPos = e.GrowInts(e.topoPos, n)
	e.sp = e.GrowFloats(e.sp, n)
	e.ioMark = e.GrowInts(e.ioMark, ioNeed)
	e.unitOf = e.GrowInts(e.unitOf, n)
	e.unitMark = e.GrowInts(e.unitMark, n)
	e.unitIndeg0 = e.GrowInts(e.unitIndeg0, n)
	e.wres.chosen = e.GrowInts(e.wres.chosen, n)
	e.wres.orderPos = e.GrowInts(e.wres.orderPos, n)
	e.wres.groupOf = e.GrowInts(e.wres.groupOf, n)
	e.wres.depthNS = e.GrowFloats(e.wres.depthNS, n)
	e.indeg = e.GrowInts(e.indeg, n)
	e.doneCycle = e.GrowInts(e.doneCycle, n)
	e.issueCycle = e.GrowInts(e.issueCycle, n)
	e.issued = e.growBools(e.issued, n)
	e.cFinalOf = e.GrowInts(e.cFinalOf, n)
	e.cSuccStart = e.GrowInts(e.cSuccStart, n+1)
	e.cPredStart = e.GrowInts(e.cPredStart, n+1)
	e.cSuccs = e.GrowInts(e.cSuccs, edges)
	e.cPreds = e.GrowInts(e.cPreds, edges)
	e.cCurA = e.GrowInts(e.cCurA, n)
	e.cCurB = e.GrowInts(e.cCurB, n)
	e.cIndeg = e.GrowInts(e.cIndeg, n)
	e.cOrder = e.GrowInts(e.cOrder, n)
	e.cDown = e.GrowInts(e.cDown, n)
	e.cUp = e.GrowInts(e.cUp, n)
	e.asap = e.GrowInts(e.asap, n)
	e.tail = e.GrowInts(e.tail, n)
	e.depthF = e.GrowFloats(e.depthF, n)
	e.depthI = e.GrowInts(e.depthI, n)
	e.hwCycles = e.GrowInts(e.hwCycles, maxRow)
	e.hwAreas = e.GrowFloats(e.hwAreas, maxRow)
	e.spw = e.GrowFloats(e.spw, maxRow)
	e.numSW = e.GrowInts(e.numSW, n)
	e.trail = e.growRows(e.trail, n)
	e.merit = e.growRows(e.merit, n)
	e.trailBuf = e.GrowFloats(e.trailBuf, totalOpts)
	e.meritBuf = e.GrowFloats(e.meritBuf, totalOpts)
	// The grown arrays carry unspecified content; unbind the per-DFG caches
	// so the next exploration rebuilds topological positions, row structure
	// and mark sizing.
	e.topoFor = nil
	e.tablesFor = nil
	e.ioMarkFor = nil
}
