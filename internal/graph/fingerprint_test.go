package graph

import "testing"

func fpGraph(t *testing.T, labels []Label, edges [][2]Vertex) *Graph {
	t.Helper()
	g, err := FromEdges(labels, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestFingerprintDeterministic(t *testing.T) {
	labels := []Label{0, 1, 0, 2}
	edges := [][2]Vertex{{0, 1}, {1, 2}, {2, 3}, {3, 0}}
	a := fpGraph(t, labels, edges)
	// Same graph built with the edge list permuted: the CSR form is
	// identical, so the fingerprint must be too.
	b := fpGraph(t, labels, [][2]Vertex{{3, 0}, {2, 3}, {0, 1}, {1, 2}})
	if FingerprintOf(a) != FingerprintOf(b) {
		t.Error("edge insertion order changed the fingerprint")
	}
	if FingerprintOf(a) != FingerprintOf(a) {
		t.Error("fingerprint is not deterministic")
	}
}

func TestFingerprintSensitivity(t *testing.T) {
	base := fpGraph(t, []Label{0, 1, 0, 2}, [][2]Vertex{{0, 1}, {1, 2}, {2, 3}, {3, 0}})
	cases := map[string]*Graph{
		"label changed": fpGraph(t, []Label{0, 1, 1, 2}, [][2]Vertex{{0, 1}, {1, 2}, {2, 3}, {3, 0}}),
		"edge removed":  fpGraph(t, []Label{0, 1, 0, 2}, [][2]Vertex{{0, 1}, {1, 2}, {2, 3}}),
		"edge rerouted": fpGraph(t, []Label{0, 1, 0, 2}, [][2]Vertex{{0, 1}, {1, 2}, {2, 3}, {1, 3}}),
		"vertex added":  fpGraph(t, []Label{0, 1, 0, 2, 0}, [][2]Vertex{{0, 1}, {1, 2}, {2, 3}, {3, 0}}),
		"empty":         fpGraph(t, nil, nil),
	}
	want := FingerprintOf(base)
	for name, g := range cases {
		if FingerprintOf(g) == want {
			t.Errorf("%s: fingerprint collision with base graph", name)
		}
	}
}

// A prefix-free serialization must distinguish graphs whose concatenated
// adjacency payloads coincide: two isolated vertices vs one vertex with
// a hypothetical padded list would differ in structure, and per-vertex
// length framing has to keep (1,2)(3) distinct from (1)(2,3)-style
// boundary shifts.
func TestFingerprintAdjacencyFraming(t *testing.T) {
	// Path 0-1-2: adjacency (1)(0,2)(1). Star 1-0, 1-2 has the same
	// multiset of edges, same thing — use graphs differing only in how
	// the same degree sum distributes.
	path := fpGraph(t, []Label{0, 0, 0, 0}, [][2]Vertex{{0, 1}, {1, 2}, {2, 3}})
	star := fpGraph(t, []Label{0, 0, 0, 0}, [][2]Vertex{{0, 1}, {0, 2}, {0, 3}})
	if FingerprintOf(path) == FingerprintOf(star) {
		t.Error("path and star share a fingerprint")
	}
}
