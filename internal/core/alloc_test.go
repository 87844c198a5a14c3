package core

import (
	"testing"

	"repro/internal/machine"
)

// TestExploreSteadyStateAllocs pins the zero-allocation contract of the
// exploration hot loop (DESIGN.md §13): once a worker's explorer has warmed
// its arenas on a DFG, a full ant iteration — walk, trail update, merit
// update — allocates nothing. This is the tier-2 regression gate behind the
// headline allocs-per-op numbers in README.md; it runs under -race via
// `make race`.
func TestExploreSteadyStateAllocs(t *testing.T) {
	d := hotBenchDFG(t, "crc32", "O3")
	e := testExplorer(t, d, machine.New(2, 4, 2), DefaultParams(), 1)
	var prevOrder []int
	tetOld := 1 << 30
	iterate := func() {
		res := e.walk()
		improved := res.tet <= tetOld
		e.UpdateTrail(res.chosen, improved, res.orderPos, prevOrder)
		if improved {
			tetOld = res.tet
		}
		e.meritUpdate(res)
		prevOrder = append(prevOrder[:0], res.orderPos...)
	}
	// Warm the arenas: ant walks vary in group count and schedule length, so
	// several iterations are needed before every buffer reaches steady-state
	// capacity. The fixed RNG seed in testExplorer makes the warmup sequence —
	// and therefore the measurement below — deterministic.
	for i := 0; i < 50; i++ {
		iterate()
	}
	if allocs := testing.AllocsPerRun(100, iterate); allocs != 0 {
		t.Fatalf("steady-state exploration iteration allocates %v/op, want 0", allocs)
	}
}
