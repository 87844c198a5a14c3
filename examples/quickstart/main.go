// Quickstart: run the complete ISE design flow — profile, explore, merge,
// select, replace, schedule — on one benchmark and print the result.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/flow"
	"repro/internal/machine"
)

func main() {
	log.SetFlags(0)

	// The workload: MiBench-style CRC32 kernel, compiled at -O3 (bit loop
	// unrolled into one large basic block).
	bm, err := bench.Get("crc32", "O3")
	if err != nil {
		log.Fatal(err)
	}

	// The machine: a 2-issue core with a 4-read/2-write register file and
	// one application-specific functional unit.
	cfg := machine.New(2, 4, 2)

	// Run the whole design flow with the proposed multiple-issue-aware
	// exploration algorithm.
	report, err := flow.Run(context.Background(), bm, flow.Options{
		Machine:   cfg,
		Params:    core.DefaultParams(),
		Algorithm: flow.MI,
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("benchmark:  %s (%s)\n", report.Benchmark, report.OptLevel)
	fmt.Printf("machine:    %s\n", report.Machine)
	fmt.Printf("no ISE:     %.0f cycles\n", report.BaseCycles)
	fmt.Printf("with ISEs:  %.0f cycles\n", report.FinalCycles)
	fmt.Printf("reduction:  %.2f%%\n", 100*report.Reduction())
	fmt.Printf("hardware:   %d ISE(s), %.0f µm²\n", report.NumISEs, report.AreaUM2)
	for i, c := range report.Selected {
		fmt.Printf("  ISE %d from %s: %d ops, %d cycle(s), gain %.0f weighted cycles\n",
			i+1, c.DFG.Name, c.ISE.Size(), c.ISE.Cycles, c.Gain)
	}
}
