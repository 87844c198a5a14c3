package core

import "repro/internal/obs"

// Arena helpers for the explorers' reusable scratch (DESIGN.md §13). Like
// the scheduling kernel's, each returns a slice of length n backed by buf's
// array when it is large enough, allocating only while the arena warms up to
// its workload. Contents are unspecified; callers overwrite every element
// they read. Every growth is counted on the colony's Grows counter, so each
// engine reports its own warmup.

var obsExploreArenaGrows = obs.Default.Counter("ise_explore_arena_grows_total",
	"Explorer arena buffer (re)allocations — nonzero only while per-worker arenas warm up to their DFG.")

// GrowInts is the int arena helper.
//
//alloc:amortized grow-on-demand arena helper; allocates only while per-worker buffers warm up to the DFG size
func (c *Colony) GrowInts(buf []int, n int) []int {
	if cap(buf) < n {
		c.Grows.Inc()
		return make([]int, n)
	}
	return buf[:n]
}

// GrowFloats is the float64 arena helper.
//
//alloc:amortized grow-on-demand arena helper; allocates only while per-worker buffers warm up to the DFG size
func (c *Colony) GrowFloats(buf []float64, n int) []float64 {
	if cap(buf) < n {
		c.Grows.Inc()
		return make([]float64, n)
	}
	return buf[:n]
}

//alloc:amortized grow-on-demand arena helper; allocates only while per-worker buffers warm up to the DFG size
func (c *Colony) growBools(buf []bool, n int) []bool {
	if cap(buf) < n {
		c.Grows.Inc()
		return make([]bool, n)
	}
	return buf[:n]
}

//alloc:amortized grow-on-demand arena helper; allocates only while per-worker buffers warm up to the DFG size
func (c *Colony) growRows(buf [][]float64, n int) [][]float64 {
	if cap(buf) < n {
		c.Grows.Inc()
		return make([][]float64, n)
	}
	return buf[:n]
}
