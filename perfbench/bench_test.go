package main

import (
	"encoding/json"
	"math/rand"
	"os"
	"testing"
)

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the harness's metric
// tables in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != 2 || spec.Workloads[0].Name != "paper_matrix" || spec.Workloads[1].Name != "explore_jobs" {
		t.Errorf("workloads = %+v, want paper_matrix and explore_jobs", spec.Workloads)
	}
	for _, tc := range []struct {
		name string
		got  []struct{ Name, Unit string }
		want []metricDef
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		if len(tc.got) != len(tc.want) {
			t.Errorf("%s lists %d metrics, the harness %d", tc.name, len(tc.got), len(tc.want))
			continue
		}
		for i, m := range tc.got {
			if m.Name != tc.want[i].name || m.Unit != tc.want[i].unit {
				t.Errorf("%s[%d] = %s (%s), harness has %s (%s)", tc.name, i, m.Name, m.Unit, tc.want[i].name, tc.want[i].unit)
			}
		}
	}
}

// TestDispenserWholeRounds: every round hands out each combination once,
// and the loop ends after the last round.
func TestDispenserWholeRounds(t *testing.T) {
	const n = 5
	const rounds = 3
	d := &dispenser{rng: rand.New(rand.NewSource(1)), round: make([]int, n), rounds: rounds}
	var got []int
	for {
		c, j, r, ok := d.take()
		if !ok {
			break
		}
		if j != len(got) || r != j/n {
			t.Fatalf("job %d in round %d, want job %d in round %d", j, r, len(got), len(got)/n)
		}
		got = append(got, c)
	}
	if len(got) != rounds*n {
		t.Fatalf("handed out %d jobs, want %d", len(got), rounds*n)
	}
	for r := 0; r < rounds; r++ {
		seen := map[int]bool{}
		for _, c := range got[r*n : (r+1)*n] {
			seen[c] = true
		}
		if len(seen) != n {
			t.Errorf("round %d covers %d of %d combinations", r, len(seen), n)
		}
	}
	if _, _, _, ok := d.take(); ok {
		t.Error("take after the stop handed out a job")
	}
}
