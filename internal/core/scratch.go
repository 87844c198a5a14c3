package core

import (
	"sync"

	"repro/internal/dfg"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/sched"
)

// Cross-exploration scratch pooling (DESIGN.md §13). One exploration worker
// needs a scheduling kernel and an explorer, both of which are grow-only
// arenas: warming them is a fixed cost per (worker, DFG) pair. A Scratch
// keeps those pairs alive across explorations, so a flow run that explores
// many hot blocks — or an experiments sweep that builds many pools — pays
// warmup once per worker for the whole run instead of once per block.
var (
	obsScratchReused = obs.Default.Counter("ise_explore_scratch_reused_total",
		"Exploration worker scratch (kernel + explorer arenas) acquisitions served warm from a Scratch pool.")
	obsScratchFresh = obs.Default.Counter("ise_explore_scratch_fresh_total",
		"Exploration worker scratch acquisitions that had to build a fresh kernel + explorer.")
)

// WorkerScratch bundles the reusable per-worker state of one exploration
// worker: the scheduling kernel and the explorer arenas. Both are pure
// scratch — which worker (or which exploration) previously used them never
// affects a restart's result, because every consumer resets or overwrites
// what it reads (explorer.reset rebinds per-DFG state; the kernel versions
// its own tables per call).
type WorkerScratch struct {
	kern *sched.Scheduler
	exp  *explorer
}

// Kernel exposes the scratch's scheduling kernel so flow stages that only
// schedule (candidate pricing, pool evaluation) can share the same warmed
// arenas the exploration used.
func (w *WorkerScratch) Kernel() *sched.Scheduler { return w.kern }

// Scratch is a pool of WorkerScratch shared across the explorations of one
// run (or one process — the pool only ever holds as many items as were
// simultaneously in use). Safe for concurrent use; see
// parallel.ScratchPool for the reuse contract.
type Scratch struct {
	pool parallel.ScratchPool

	// Prewarm bounds: the arena sizes of the largest DFG announced so far.
	// Acquire presizes every handed-out explorer to them, so arenas warmed
	// for a run's biggest block never regrow on any block (see prewarm.go).
	mu     sync.Mutex
	nodes  int // guarded by mu
	opts   int // guarded by mu
	row    int // guarded by mu
	edges  int // guarded by mu
	ioNeed int // guarded by mu
}

// Prewarm announces the DFGs an upcoming run will explore, so every
// WorkerScratch handed out afterwards is presized to the largest of them —
// the arena-warmup amortization that removes the per-(worker, block) warmup
// cost. Bounds only ever grow (several callers may announce different runs);
// the call itself allocates nothing beyond the pool items' own growth.
func (s *Scratch) Prewarm(dfgs ...*dfg.DFG) {
	var n, opts, row, edges, ioNeed int
	for _, d := range dfgs {
		if d == nil {
			continue
		}
		bn, bo, br, be, bi := arenaBounds(d)
		if bn > n {
			n = bn
		}
		if bo > opts {
			opts = bo
		}
		if br > row {
			row = br
		}
		if be > edges {
			edges = be
		}
		if bi > ioNeed {
			ioNeed = bi
		}
	}
	s.mu.Lock()
	if n > s.nodes {
		s.nodes = n
	}
	if opts > s.opts {
		s.opts = opts
	}
	if row > s.row {
		s.row = row
	}
	if edges > s.edges {
		s.edges = edges
	}
	if ioNeed > s.ioNeed {
		s.ioNeed = ioNeed
	}
	s.mu.Unlock()
}

// NewScratch returns an empty scratch pool.
func NewScratch() *Scratch {
	s := &Scratch{}
	s.pool.New = func() any {
		return &WorkerScratch{kern: sched.NewScheduler(), exp: newExplorer()}
	}
	s.pool.Reused = obsScratchReused
	s.pool.Fresh = obsScratchFresh
	return s
}

// Acquire hands out one worker's scratch, warm when a previous exploration
// released one, presized to the Prewarm bounds when any were announced.
// Callers must Release it when their exploration finishes.
func (s *Scratch) Acquire() *WorkerScratch {
	ws := s.pool.Get().(*WorkerScratch)
	s.mu.Lock()
	n, opts, row, edges, ioNeed := s.nodes, s.opts, s.row, s.edges, s.ioNeed
	s.mu.Unlock()
	if n > 0 {
		ws.exp.presize(n, opts, row, edges, ioNeed)
	}
	return ws
}

// Release returns ws to the pool. ws must not be used afterwards.
func (s *Scratch) Release(ws *WorkerScratch) {
	s.pool.Put(ws)
}
