// Command perfbench is the repository's end-to-end benchmark. It drives the
// ISE pipeline from outside, through the public functions of each module,
// checks every output, and prints one JSON result line. See README.md for
// the workloads, the metric → layer → workload table and how to run it.
//
// Usage (from the repository root; run.py builds this package first):
//
//	python3 perfbench/run.py --workload paper_matrix --seed 1 --seconds 10 --trace 0
//	python3 perfbench/run.py --workload explore_jobs --seed 1 --seconds 10 --trace 1
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	traced   bool
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// metricDef names a metric and its unit. BENCHMARK.json lists the same
// names (TestBenchmarkJSONMatches keeps the two in step).
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run; both workloads report all of
// them (README.md defines each one per workload).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"ok_frac", "frac"},
	{"matrix_s", "s"},
	{"resweep_s", "s"},
	{"job_p50_s", "s"},
	{"job_p90_s", "s"},
	{"jobs_per_s", "1/s"},
	{"one_ise_reduction_pct", "%"},
	{"mean_reduction_pct", "%"},
	{"job_reduction_pct", "%"},
}

// perLayer are the metrics of a traced run. A layer the workload never
// calls reports 0 (README.md says which).
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"vm.profile_s", "s"},
		{"dfg.build_s", "s"},
		{"sched.base_s", "s"},
		{"core.explore_s", "s"},
		{"baseline.explore_s", "s"},
		{"flow.price_s", "s"},
		{"merging.merge_s", "s"},
		{"replace.apply_cold_s", "s"},
		{"replace.apply_warm_s", "s"},
		{"selection.select_s", "s"},
		{"merging.candidates", "count"},
		{"merging.groups", "count"},
		{"selection.selected", "count"},
		{"replace.instances", "count"},
		{"core.restarts", "count"},
		{"core.rounds", "count"},
		{"core.iterations", "count"},
		{"core.evalcache_hit_ratio", "frac"},
		{"sched.schedule_calls", "count"},
		{"sched.delta_resumes", "count"},
		{"sched.delta_resume_ratio", "frac"},
		{"flow.pricing_evals", "count"},
		{"service.submit_s", "s"},
		{"service.queue_wait_s", "s"},
		{"service.run_s", "s"},
		{"service.events", "count"},
		{"service.sse_resumes", "count"},
		{"service.overhead_s", "s"},
		{"trace.wall_s", "s"},
		{"trace.coverage", "frac"},
		{"trace.overhead_s", "s"},
	}
	for _, k := range kernels() {
		defs = append(defs, metricDef{"flow.pool_s." + k.key(), "s"})
	}
	return defs
}()

func main() {
	var (
		workload = flag.String("workload", "", "paper_matrix or explore_jobs")
		seed     = flag.Int64("seed", 1, "seed for exploration parameters and the job shuffle")
		seconds  = flag.Int("seconds", 10, "measured seconds of the repeated phase")
		trace    = flag.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
	)
	flag.Parse()
	cfg := config{workload: *workload, seed: *seed, seconds: time.Duration(*seconds) * time.Second, traced: *trace == 1}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	fmt.Printf("perfbench: workload=%s seed=%d seconds=%d trace=%d\n", cfg.workload, cfg.seed, *seconds, *trace)

	var (
		m   map[string]float64
		t   *tally
		err error
	)
	switch cfg.workload {
	case "paper_matrix":
		m, t, err = runMatrix(cfg)
	case "explore_jobs":
		m, t, err = runJobs(cfg)
	default:
		err = fmt.Errorf("unknown workload %q (want paper_matrix or explore_jobs)", cfg.workload)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	defs := endToEnd
	if cfg.traced {
		defs = perLayer
	} else {
		m["peak_rss_mb"] = peakRSSMB()
		m["ok_frac"] = t.okFrac()
	}
	res, err := assemble(defs, m, t)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// assemble builds the result line from the measured values, insisting that
// exactly the defined metrics were measured.
func assemble(defs []metricDef, m map[string]float64, t *tally) (*result, error) {
	res := &result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: map[string]metric{}}
	for _, d := range defs {
		v, ok := m[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	if len(res.Metrics) != len(m) {
		var extra []string
		for k := range m {
			if _, ok := res.Metrics[k]; !ok {
				extra = append(extra, k)
			}
		}
		sort.Strings(extra)
		return nil, fmt.Errorf("undeclared metrics measured: %s", strings.Join(extra, ", "))
	}
	if res.Attempted < 1 {
		return nil, fmt.Errorf("no operation attempted")
	}
	return res, nil
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return -1
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) >= 1 {
				kb, err := strconv.ParseFloat(f[0], 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	return -1
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile returns the nearest-rank q-quantile of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(q*float64(len(s))+0.999999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// stderrf prints a progress or diagnostic line; stdout is reserved for the
// report and the result line.
func stderrf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}
