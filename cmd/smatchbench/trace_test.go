package main

import (
	"math"
	"testing"
)

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Name: "request", StartNS: 100, EndNS: 1100},
		{ID: 2, Parent: 1, Name: "filter", StartNS: 150, EndNS: 550},
		{ID: 3, Parent: 1, Name: "enumerate", StartNS: 600, EndNS: 1000},
		{ID: 4, Parent: 3, Name: "kernel", StartNS: 700, EndNS: 800},
		// Overlapping children are covered once; a child reaching past
		// its parent is clipped to it.
		{ID: 5, Parent: 0, Name: "overlap", StartNS: 0, EndNS: 100},
		{ID: 6, Parent: 5, Name: "a", StartNS: 10, EndNS: 60},
		{ID: 7, Parent: 5, Name: "b", StartNS: 40, EndNS: 80},
		{ID: 8, Parent: 5, Name: "c", StartNS: 90, EndNS: 130},
	}
	self := selfTimes(spans)
	for id, want := range map[int]int64{
		1: 1000 - 400 - 400, // request minus its two children, not its grandchild
		2: 400,
		3: 400 - 100,
		4: 100,
		5: 100 - 70 - 10, // [10,80) and [90,100)
		6: 50,
	} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
}

// layerTable takes per-request medians over the repetitions, then means
// over the requests; counts come from repetition 0.
func TestLayerTable(t *testing.T) {
	var spans []span
	id := 0
	add := func(parent int, req string, rep int, name string, start, end int64, counts map[string]float64) int {
		id++
		spans = append(spans, span{ID: id, Parent: parent, Request: req, Rep: rep, Name: name, StartNS: start, EndNS: end, Counts: counts})
		return id
	}
	// Two requests, three repetitions; filter takes 2/4/9 ms on the
	// first (median 4) and 6/6/6 on the second: mean of medians 5 ms.
	filterNS := map[string][]int64{"w/0": {2e6, 4e6, 9e6}, "w/1": {6e6, 6e6, 6e6}}
	for _, req := range []string{"w/0", "w/1"} {
		for rep := 0; rep < 3; rep++ {
			f := filterNS[req][rep]
			root := add(0, req, rep, "request", 0, f+1e6+1e5, nil)
			add(root, req, rep, "filter", 0, f, map[string]float64{"candidates": 120, "ldf_candidates": 480, "vertices": 8})
			add(root, req, rep, "enumerate", f, f+1e6, map[string]float64{"nodes": 500, "embeddings": 250, "kernel_merge": 30})
			add(0, req, rep, "service.submit", 0, 3e6, map[string]float64{"preprocess_ns": 2e6, "enumerate_ns": 9e5})
		}
	}
	add(0, "w/data", 0, "store.snapshot_write", 0, 5e6, map[string]float64{"bytes": 3000, "edges": 1000})
	// Each request span is 0.1 ms longer than its children.
	requestNS := 0.0
	for _, reps := range filterNS {
		for _, f := range reps {
			requestNS += float64(f) + 1e6 + 1e5
		}
	}
	m := layerTable(spans)
	for name, want := range map[string]float64{
		"filter.time_ms":                5,
		"filter.candidates_per_vertex":  15,
		"filter.kept_ratio":             0.25,
		"enumerate.seq_ms":              1,
		"enumerate.nodes_per_op":        500,
		"enumerate.ns_per_node":         2000,
		"enumerate.embeddings_per_node": 0.5,
		"intersect.merge_calls_per_op":  30,
		"intersect.block_calls_per_op":  0,
		// No core.parallel span: the sequential enumeration stands in.
		"core.par_ms":             1,
		"core.par_speedup":        1,
		"core.tasks_per_op":       0,
		"service.submit_self_us":  100,
		"store.snapshot_write_ms": 5,
		"store.bytes_per_edge":    3,
		"trace.request_self_pct":  6 * 1e5 / requestNS * 100,
	} {
		got, ok := m[name]
		if !ok {
			t.Errorf("layer table has no %s", name)
		} else if math.Abs(got.Value-want) > 1e-9*math.Max(1, math.Abs(want)) {
			t.Errorf("%s = %v, want %v", name, got.Value, want)
		}
	}
}
