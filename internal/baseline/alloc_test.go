package baseline

import (
	"testing"

	"repro/internal/aco"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/dfg"
	"repro/internal/machine"
)

func hotBenchDFG(t *testing.T, name, opt string) *dfg.DFG {
	t.Helper()
	bm, err := bench.Get(name, opt)
	if err != nil {
		t.Fatal(err)
	}
	prof, err := bm.Run()
	if err != nil {
		t.Fatal(err)
	}
	return dfg.BuildAll(bm.Prog, prof.HotBlocks(bm.Prog, 1), prof.BlockCounts)[0]
}

// TestBaselineSteadyStateAllocs pins the zero-allocation contract of the
// baseline's convergence hot loop, mirroring core's
// TestExploreSteadyStateAllocs (DESIGN.md §13): once a worker's explorer has
// warmed its arenas on a DFG, a full iteration — option selection, serial
// evaluation, trail update, merit update, convergence check — allocates
// nothing. Runs under -race via `make race`.
func TestBaselineSteadyStateAllocs(t *testing.T) {
	d := hotBenchDFG(t, "crc32", "O3")
	e := &explorer{Colony: core.Colony{Grows: obsBaselineArenaGrows}}
	if err := e.reset(d, machine.New(2, 4, 2), core.DefaultParams(), aco.NewRand(1)); err != nil {
		t.Fatal(err)
	}
	e.InitTables()
	tetOld := 1 << 30
	iterate := func() {
		chosen := e.selectOptions()
		tet := e.serialCycles(chosen)
		improved := tet <= tetOld
		e.UpdateTrail(chosen, improved, nil, nil)
		if improved {
			tetOld = tet
		}
		e.meritUpdate(chosen)
		e.ConvergedNow()
	}
	// Warm the arenas: iteration groups vary in size and count, so several
	// iterations are needed before every buffer reaches steady-state
	// capacity. The fixed RNG seed makes the warmup deterministic.
	for i := 0; i < 50; i++ {
		iterate()
	}
	if allocs := testing.AllocsPerRun(100, iterate); allocs != 0 {
		t.Fatalf("steady-state baseline iteration allocates %v/op, want 0", allocs)
	}
}

// TestBaselineSharedScratchDeterminism pins the scratch-pooling contract:
// explorations drawing worker scratch from a shared pool — including scratch
// warmed on a *different* DFG — return byte-identical results to fresh
// explorations, at every worker count. This is the cross-block reuse path
// flow.BuildPool drives.
func TestBaselineSharedScratchDeterminism(t *testing.T) {
	d1 := hotBenchDFG(t, "crc32", "O3")
	d2 := hotBenchDFG(t, "bitcount", "O3")
	cfg := machine.New(2, 4, 2)
	p := core.FastParams()
	p.Restarts = 3

	want1, err := ExploreSharedCtx(t.Context(), d1, cfg, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	want2, err := ExploreSharedCtx(t.Context(), d2, cfg, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4, 8} {
		pw := p
		pw.Workers = workers
		scr := NewScratch()
		// Interleave the two DFGs twice so reused scratch has always been
		// warmed on the other DFG at least once.
		for round := 0; round < 2; round++ {
			got1, err := ExploreSharedCtx(t.Context(), d1, cfg, pw, scr)
			if err != nil {
				t.Fatal(err)
			}
			got2, err := ExploreSharedCtx(t.Context(), d2, cfg, pw, scr)
			if err != nil {
				t.Fatal(err)
			}
			for i, pair := range []struct{ got, want *core.Result }{{got1, want1}, {got2, want2}} {
				if g, w := formatResult(pair.got), formatResult(pair.want); g != w {
					t.Fatalf("workers=%d round=%d dfg=%d: shared-scratch result differs:\n got: %s\nwant: %s",
						workers, round, i+1, g, w)
				}
			}
		}
	}
}
