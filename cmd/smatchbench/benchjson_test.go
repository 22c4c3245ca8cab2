package main

import (
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"testing"

	"subgraphmatching/internal/service"
)

// BENCHMARK.json at the repository root declares what this command
// reports; the two must not drift apart.
func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json above this package: %v", err)
	}
	var decl struct {
		RunSeconds float64 `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit string
			Bound      float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &decl); err != nil {
		t.Fatal(err)
	}
	if decl.RunSeconds != baseSeconds {
		t.Errorf("run_seconds %v, pass counts are sized for %v", decl.RunSeconds, baseSeconds)
	}
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d implemented", len(decl.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if decl.Workloads[i].Name != w.Name || decl.Workloads[i].Why != w.Why {
			t.Errorf("workload %d declared as %+v, implemented as %q: %q", i, decl.Workloads[i], w.Name, w.Why)
		}
	}
	if len(decl.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics declared, %d reported", len(decl.EndToEnd), len(endToEnd))
	}
	for i, def := range endToEnd {
		if got := decl.EndToEnd[i]; got.Name != def.Name || got.Unit != def.Unit || got.Bound != def.Bound {
			t.Errorf("end-to-end metric %d declared as %+v, reported as %+v", i, got, def)
		}
	}

	// Every per-layer name and unit the harness can emit: the span
	// table, the wire table, and the traced-round overhead.
	emitted := map[string]string{"obs.trace_overhead_pct": "%"}
	for k, m := range layerTable(nil) {
		emitted[k] = m.Unit
	}
	for k, m := range httpLayer([]round{{WallS: 1}}, pooled{Ops: 1}, nil, &service.Stats{}, &service.Stats{}) {
		emitted[k] = m.Unit
	}
	declared := map[string]string{}
	for _, m := range decl.PerLayer {
		declared[m.Name] = m.Unit
	}
	if !reflect.DeepEqual(declared, emitted) {
		var diff []string
		for k, u := range emitted {
			if declared[k] != u {
				diff = append(diff, "emitted "+k+" "+u+", declared "+declared[k])
			}
		}
		for k, u := range declared {
			if _, ok := emitted[k]; !ok {
				diff = append(diff, "declared "+k+" "+u+", never emitted")
			}
		}
		sort.Strings(diff)
		t.Errorf("per-layer metrics differ:\n%v", diff)
	}
}
