package core

import (
	"math"
	"runtime"
	"testing"

	"subgraphmatching/internal/graph"
)

// labelledGraph builds a graph from its vertex labels and edges.
func labelledGraph(t *testing.T, labels []graph.Label, edges [][2]graph.Vertex) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(len(labels), len(edges))
	for _, l := range labels {
		b.AddVertex(l)
	}
	for _, e := range edges {
		b.AddEdge(e[0], e[1])
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestVF2PPHugeLabels: VF2++'s cutoff tallies only the labels its query
// needs, so a data graph carrying label 10 000 000 or 2³²−1 costs a
// VF2PP request kilobytes — sized by the largest label, its counter took
// 40 MB on the first and would take 16 GiB on the second — and VF2PP
// counts what RI counts.
func TestVF2PPHugeLabels(t *testing.T) {
	for _, big := range []graph.Label{10_000_000, math.MaxUint32} {
		g := labelledGraph(t, []graph.Label{big, 1, 1, big, 1},
			[][2]graph.Vertex{{0, 1}, {0, 2}, {1, 2}, {2, 3}, {3, 4}, {1, 3}})
		q := labelledGraph(t, []graph.Label{1, big, 1}, [][2]graph.Vertex{{0, 1}, {1, 2}})
		want, err := Match(q, g, PresetConfig(RI, q, g), Limits{})
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		got, err := Match(q, g, PresetConfig(VF2PP, q, g), Limits{})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if got.Embeddings != want.Embeddings || want.Embeddings == 0 {
			t.Errorf("label %d: VF2PP counts %d embeddings, RI %d", big, got.Embeddings, want.Embeddings)
		}
		if b := after.TotalAlloc - before.TotalAlloc; b >= 64<<10 {
			t.Errorf("label %d: a VF2PP match allocated %d B, want < 64 KiB", big, b)
		}
	}
}
