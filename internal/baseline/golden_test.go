package baseline

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/machine"
)

var update = flag.Bool("update", false, "rewrite testdata/engines_fast.txt from current output")

// formatResult renders everything an exploration decides, in a canonical
// text form: cycle counts, the algorithm-work counters, and every accepted
// ISE's members with their per-node hardware options and measured figures.
// Iterations is in the rendering on purpose: it moves with any drift in the
// random stream, even when the final selection happens to mask it. The
// cache counters are observability only and stay out.
func formatResult(r *core.Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "base=%d final=%d rounds=%d iters=%d ises=%d\n",
		r.BaseCycles, r.FinalCycles, r.Rounds, r.Iterations, len(r.ISEs))
	for i, e := range r.ISEs {
		fmt.Fprintf(&b, "  ise%d cyc=%d delay=%s area=%s in=%d out=%d saving=%d nodes=",
			i, e.Cycles, strconv.FormatFloat(e.DelayNS, 'g', -1, 64),
			strconv.FormatFloat(e.AreaUM2, 'g', -1, 64), e.In, e.Out, e.SavingCycles)
		for j, v := range e.Nodes.Values() {
			if j > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "%d:%d", v, e.Option[v])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// formatOutcome is formatResult, or the error line of a failed exploration:
// an engine's failures are part of its pinned behaviour too.
func formatOutcome(r *core.Result, err error) string {
	if err != nil {
		return "error: " + err.Error() + "\n"
	}
	return formatResult(r)
}

// TestEnginesGolden pins both exploration engines block by block: the
// multiple-issue explorer (core.ExploreResumable) and the single-issue
// baseline (ExploreSharedCtx) on the hottest block of every benchmark
// kernel, both optimization shapes, two machine configurations, at
// FastParams. The recorded text is byte-exact, so any change to either
// engine's random stream, float accumulation order or candidate shaping
// shows here even where the paper matrix's selection stage would hide it.
// Regenerate with -update only for an intended behaviour change.
func TestEnginesGolden(t *testing.T) {
	cfgs := []machine.Config{machine.New(2, 4, 2), machine.New(4, 6, 3)}
	p := core.FastParams()
	var got bytes.Buffer
	for _, name := range bench.Extended() {
		for _, opt := range bench.Opts() {
			d := hotBenchDFG(t, name, opt)
			for _, cfg := range cfgs {
				head := fmt.Sprintf("%s/%s %s n=%d", name, opt, cfg.Name, d.Len())
				mi, _, err := core.ExploreResumable(t.Context(), d, cfg, p, core.ResumeOptions{})
				fmt.Fprintf(&got, "%s MI %s", head, formatOutcome(mi, err))
				si, err := ExploreSharedCtx(t.Context(), d, cfg, p, nil)
				fmt.Fprintf(&got, "%s SI %s", head, formatOutcome(si, err))
			}
		}
	}
	path := filepath.Join("testdata", "engines_fast.txt")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("engine results differ from %s at line %d:\n got: %q\nwant: %q", path, i+1, g, w)
		}
	}
}
