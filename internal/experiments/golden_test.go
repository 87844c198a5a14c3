package experiments

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
)

var update = flag.Bool("update", false, "rewrite testdata/results_fast.txt from current output")

// renderFastMatrix writes what `isebench -all -fast` prints on stdout, minus
// its trailing wall-time line: Table 5.1.1, Figures 5.2.1–5.2.3 and the
// headline numbers, each followed by a blank line.
func renderFastMatrix(w *bytes.Buffer) error {
	p := core.FastParams()
	p.Seed = 1
	s := NewSuite(p)
	RenderTable511(w)
	fmt.Fprintln(w)
	as, err := s.RunAreaSweep()
	if err != nil {
		return err
	}
	as.Render(w)
	fmt.Fprintln(w)
	cs, err := s.RunCountSweep()
	if err != nil {
		return err
	}
	cs.Render(w)
	fmt.Fprintln(w)
	v, err := s.RunAreaVsTime()
	if err != nil {
		return err
	}
	v.Render(w)
	fmt.Fprintln(w)
	h, err := s.RunHeadline()
	if err != nil {
		return err
	}
	h.Render(w)
	fmt.Fprintln(w)
	return nil
}

// TestFastMatrixGolden pins the paper's reduced-effort evaluation matrix
// byte for byte. Any change to exploration, merging, selection, matching or
// replacement that moves a figure cell fails here; a deliberate change
// regenerates the file with `go test ./internal/experiments -run
// TestFastMatrixGolden -update` and says why in its commit.
func TestFastMatrixGolden(t *testing.T) {
	var got bytes.Buffer
	if err := renderFastMatrix(&got); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "results_fast.txt")
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
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	gl, wl := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w []byte
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if !bytes.Equal(g, w) {
			t.Fatalf("fast matrix differs from %s at line %d:\n got: %q\nwant: %q", path, i+1, g, w)
		}
	}
}
