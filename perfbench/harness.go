package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/bench"
	"repro/internal/obs"
)

// kernel is one benchmark program at one optimization level.
type kernel struct{ bench, opt string }

func (k kernel) key() string { return k.bench + "_" + k.opt }

// kernels lists the paper's 7 benchmarks × O0/O3 in matrix order.
func kernels() []kernel {
	var out []kernel
	for _, b := range bench.Names() {
		for _, o := range bench.Opts() {
			out = append(out, kernel{b, o})
		}
	}
	return out
}

// tally counts attempted operations and the failures among them. Every
// pipeline error, HTTP error, rejected or unfinished job and oracle
// violation is one failure.
type tally struct {
	mu                sync.Mutex
	attempted, failed int
}

// maxReported bounds the failure lines printed per run.
const maxReported = 20

// check records one attempted operation, failed when err is non-nil.
func (t *tally) check(what string, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if err == nil {
		return
	}
	t.failed++
	if t.failed <= maxReported {
		stderrf("FAIL %s: %v", what, err)
	}
}

// okFrac is the share of attempted operations that succeeded.
func (t *tally) okFrac() float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.attempted == 0 {
		return 0
	}
	return float64(t.attempted-t.failed) / float64(t.attempted)
}

// span is one timed call into a module. Spans nest through Parent; Root is
// the top-level ancestor, which names the phase the span belongs to.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent,omitempty"`
	Root   int           `json:"root"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// tracer keeps spans in memory; write dumps them when the run ends. It is
// safe for concurrent use.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under parent (0 for a top-level span) and returns its
// id. On a nil tracer (an untraced run) it records nothing and returns 0.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	root := id
	if parent > 0 {
		root = t.spans[parent-1].Root
	}
	t.spans = append(t.spans, span{ID: id, Parent: parent, Root: root, Name: name, Start: now})
	return id
}

// end closes span id; it does nothing on a nil tracer.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// dur returns span id's duration.
func (t *tracer) dur(id int) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.spans[id-1]
	return s.End - s.Start
}

// total sums the durations of the spans called name under top-level span
// root (every root when root is 0).
func (t *tracer) total(name string, root int) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var sum time.Duration
	for _, s := range t.spans {
		if s.Name == name && (root == 0 || s.Root == root) {
			sum += s.End - s.Start
		}
	}
	return sum
}

// write dumps every span as JSON into path.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	data, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// traceFile is where a traced run leaves its spans, inside the build
// directory run.py creates.
func traceFile(cfg config) string {
	return fmt.Sprintf(".bench_build/trace-%s-seed%d.json", cfg.workload, cfg.seed)
}

// engineCounters are the obs.Default counters the benchmark reports as
// per-workload deltas.
var engineCounters = []string{
	"ise_sched_schedule_calls_total",
	"ise_sched_delta_resumes_total",
	"ise_explore_restarts_total",
	"ise_explore_rounds_total",
	"ise_explore_iterations_total",
	"ise_evalcache_hits_total",
	"ise_evalcache_misses_total",
	"ise_flow_pricing_evals_total",
}

// readCounters sums every series of each engine counter family.
func readCounters() map[string]float64 {
	want := map[string]bool{}
	for _, n := range engineCounters {
		want[n] = true
	}
	out := map[string]float64{}
	for _, f := range obs.Default.Dump().Families {
		if !want[f.Name] {
			continue
		}
		for _, s := range f.Series {
			out[f.Name] += s.Value
		}
	}
	return out
}

// counterMetrics turns the counter deltas between two readings into the
// per-layer metrics. Eval-cache hits are best-effort (concurrent workers
// racing on a fresh key may each count a miss), so they are reported only
// as a ratio.
func counterMetrics(before, after map[string]float64) map[string]float64 {
	d := func(n string) float64 { return after[n] - before[n] }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	hits, misses := d("ise_evalcache_hits_total"), d("ise_evalcache_misses_total")
	calls := d("ise_sched_schedule_calls_total")
	return map[string]float64{
		"sched.schedule_calls":     calls,
		"sched.delta_resumes":      d("ise_sched_delta_resumes_total"),
		"sched.delta_resume_ratio": ratio(d("ise_sched_delta_resumes_total"), calls),
		"core.restarts":            d("ise_explore_restarts_total"),
		"core.rounds":              d("ise_explore_rounds_total"),
		"core.iterations":          d("ise_explore_iterations_total"),
		"core.evalcache_hit_ratio": ratio(hits, hits+misses),
		"flow.pricing_evals":       d("ise_flow_pricing_evals_total"),
	}
}

// printShares prints each named total as a share of wall, largest first.
func printShares(title string, totals map[string]float64, wall float64) {
	names := make([]string, 0, len(totals))
	for n := range totals {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool {
		if totals[names[i]] != totals[names[j]] {
			return totals[names[i]] > totals[names[j]]
		}
		return names[i] < names[j]
	})
	fmt.Printf("%s (wall %.3fs)\n", title, wall)
	for _, n := range names {
		fmt.Printf("  %-24s %9.3fs %6.1f%%\n", n, totals[n], 100*totals[n]/wall)
	}
}
