package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestBenchmarkJSONMatches keeps ../BENCHMARK.json in step with the
// metrics and workloads this program reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	for _, w := range b.Workloads {
		if _, err := workloadByName(w.Name); err != nil {
			t.Error(err)
		}
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []decl) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program reports %d", kind, len(got), len(want))
			return
		}
		for i, m := range got {
			if m.Name != want[i].name || m.Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s (%s), the program %s (%s)",
					kind, i, m.Name, m.Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
}
