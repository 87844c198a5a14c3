// Multiapp: co-design one instruction-set extension for a whole application
// suite. An embedded platform rarely runs a single program; this example
// selects ASFU hardware that serves crc32, sha and blowfish *together*,
// sharing datapaths across applications, under a sweep of area budgets.
//
//	go run ./examples/multiapp
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"text/tabwriter"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/flow"
	"repro/internal/machine"
	"repro/internal/selection"
)

func main() {
	log.SetFlags(0)
	ctx := context.Background()
	var suite []*bench.Benchmark
	for _, name := range []string{"crc32", "sha", "blowfish"} {
		bm, err := bench.Get(name, "O3")
		if err != nil {
			log.Fatal(err)
		}
		suite = append(suite, bm)
	}
	mp, err := flow.BuildMultiPool(ctx, suite, flow.Options{
		Machine:   machine.New(2, 4, 2),
		Params:    core.FastParams(),
		Algorithm: flow.MI,
		HotBlocks: 2,
	})
	if err != nil {
		log.Fatal(err)
	}

	w := tabwriter.NewWriter(os.Stdout, 2, 0, 2, ' ', 0)
	fmt.Fprintln(w, "area budget\tISEs\tarea used\tsuite reduction\tcrc32\tsha\tblowfish")
	for _, budget := range []float64{5000, 10000, 20000, 0} {
		rep, err := mp.Evaluate(ctx, selection.Constraints{MaxAreaUM2: budget})
		if err != nil {
			log.Fatal(err)
		}
		label := "unlimited"
		if budget > 0 {
			label = fmt.Sprintf("%.0f µm²", budget)
		}
		fmt.Fprintf(w, "%s\t%d\t%.0f\t%.2f%%", label, rep.NumISEs, rep.AreaUM2, 100*rep.Reduction())
		for _, app := range rep.PerApp {
			fmt.Fprintf(w, "\t%.2f%%", 100*app.Reduction())
		}
		fmt.Fprintln(w)
	}
	if err := w.Flush(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nOne ASFU set serves the whole suite; candidates explored in one")
	fmt.Println("program are pattern-matched and deployed in the others.")
}
