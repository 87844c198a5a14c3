package core

import (
	"testing"

	"repro/internal/machine"
	"repro/internal/obs"
)

// instrumentedIterate returns a closure running one steady-state exploration
// iteration wrapped in the observability calls the round loop makes in
// runOnce: the tracer's span chain (Begin/Arg/End) and the flight recorder's
// convergence sample. Passing nil for tr or fl exercises the disabled form
// of the corresponding call sites — a plain nil check that must not
// allocate.
func instrumentedIterate(tb testing.TB, tr *obs.Tracer, fl *obs.Flight) func() {
	d := hotBenchDFG(tb, "crc32", "O3")
	e := testExplorer(tb, d, machine.New(2, 4, 2), DefaultParams(), 1)
	var prevOrder []int
	tetOld := 1 << 30
	round := 0
	return func() {
		sp := tr.Begin("round", 1).Arg("round", int64(round))
		res := e.walk()
		improved := res.tet <= tetOld
		e.UpdateTrail(res.chosen, improved, res.orderPos, prevOrder)
		if improved {
			tetOld = res.tet
		}
		e.meritUpdate(res)
		prevOrder = append(prevOrder[:0], res.orderPos...)
		sp.Arg("iters", int64(round)).End()
		fl.Record(obs.FlightRound, 0, round, float64(res.tet), float64(len(e.Fixed)))
		round++
	}
}

// TestExploreInstrumentedSteadyStateAllocs extends the zero-allocation
// contract of TestExploreSteadyStateAllocs to the instrumented loop: with
// the tracer AND the flight recorder compiled in but disabled (nil), a
// steady-state exploration iteration — including the span chain and the
// convergence-sample call exactly as the round loop makes them — still
// allocates nothing. This is the hard gate behind the
// BenchmarkExploreIter*Off numbers.
func TestExploreInstrumentedSteadyStateAllocs(t *testing.T) {
	iterate := instrumentedIterate(t, nil, nil)
	for i := 0; i < 50; i++ {
		iterate()
	}
	if allocs := testing.AllocsPerRun(100, iterate); allocs != 0 {
		t.Fatalf("instrumented steady-state iteration allocates %v/op with obs disabled, want 0", allocs)
	}
}

func benchIterate(b *testing.B, tr *obs.Tracer, fl *obs.Flight) {
	iterate := instrumentedIterate(b, tr, fl)
	for i := 0; i < 50; i++ {
		iterate() // warm the arenas, as in the alloc test
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		iterate()
	}
}

// BenchmarkExploreIterTraceOff pins the cost of the exploration iteration
// with the tracer call sites present but tracing disabled: 0 allocs/op.
func BenchmarkExploreIterTraceOff(b *testing.B) {
	benchIterate(b, nil, nil)
}

// BenchmarkExploreIterFlightOff pins the cost of the exploration iteration
// with the flight-recorder call site present but recording disabled:
// 0 allocs/op. Identical code path to BenchmarkExploreIterTraceOff (both
// instruments nil); the two names pin the two halves of the contract
// separately in the bench report.
func BenchmarkExploreIterFlightOff(b *testing.B) {
	benchIterate(b, nil, nil)
}

// BenchmarkExploreIterFlightOn measures the same iteration with a live
// flight recorder — the marginal cost of journaling convergence samples.
func BenchmarkExploreIterFlightOn(b *testing.B) {
	benchIterate(b, nil, obs.NewFlight(0))
}

// BenchmarkExploreIterTraceOn measures the same iteration with a live
// tracer — the marginal cost of span recording in the round loop.
func BenchmarkExploreIterTraceOn(b *testing.B) {
	benchIterate(b, obs.NewTracer(), nil)
}
