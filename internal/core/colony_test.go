package core

import (
	"testing"

	"repro/internal/dfg"
	"repro/internal/graph"
	"repro/internal/machine"
)

// TestColonyBindRejectsCyclicDFG: the shared topological cache reports a
// cyclic graph as an error, for both engines, instead of panicking.
func TestColonyBindRejectsCyclicDFG(t *testing.T) {
	g := graph.New(2)
	g.AddEdge(0, 1)
	g.AddEdge(1, 0)
	d := &dfg.DFG{Name: "cycle", G: g, Data: g}
	c := Colony{Grows: obsExploreArenaGrows}
	if err := c.Bind(d, machine.New(2, 4, 2), FastParams()); err == nil {
		t.Fatal("Bind accepted a cyclic DFG")
	}
}
