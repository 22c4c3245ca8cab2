package testutil

import (
	"math/rand"
	"testing"

	"subgraphmatching/internal/graph"
)

// The fixtures anchor every other test suite, so they get verified
// themselves.

func TestPaperGraphShapes(t *testing.T) {
	q, g := PaperQuery(), PaperData()
	if q.NumVertices() != 4 || q.NumEdges() != 5 {
		t.Fatalf("paper query is %v", q)
	}
	if g.NumVertices() != 13 || g.NumEdges() != 19 {
		t.Fatalf("paper data graph is %v", g)
	}
	if !q.IsConnected() {
		t.Error("paper query must be connected")
	}
}

func TestPaperMatchIsTheOnlyMatch(t *testing.T) {
	q, g := PaperQuery(), PaperData()
	matches := BruteForceMatches(q, g)
	if len(matches) != 1 {
		t.Fatalf("paper example has %d matches, want exactly 1", len(matches))
	}
	want := PaperMatch()
	for u, v := range want {
		if matches[0][u] != v {
			t.Fatalf("brute force found %v, want %v", matches[0], want)
		}
	}
	if !IsValidEmbedding(q, g, want) {
		t.Error("PaperMatch must validate")
	}
}

func TestIsValidEmbeddingRejects(t *testing.T) {
	q, g := PaperQuery(), PaperData()
	cases := []struct {
		name string
		m    []graph.Vertex
	}{
		{"wrong length", []graph.Vertex{0, 4, 5}},
		{"duplicate image", []graph.Vertex{0, 4, 4, 12}},
		{"label mismatch", []graph.Vertex{1, 4, 5, 12}},
		{"missing edge", []graph.Vertex{0, 2, 5, 12}},
		{"out of range", []graph.Vertex{0, 4, 5, 99}},
	}
	for _, c := range cases {
		if IsValidEmbedding(q, g, c.m) {
			t.Errorf("%s: %v should be invalid", c.name, c.m)
		}
	}
}

func TestBruteForceCountsOnKnownGraphs(t *testing.T) {
	// Triangle in K4: 4*3*2 = 24.
	var edges [][2]graph.Vertex
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			edges = append(edges, [2]graph.Vertex{graph.Vertex(i), graph.Vertex(j)})
		}
	}
	k4 := graph.MustFromEdges(make([]graph.Label, 4), edges)
	tri := graph.MustFromEdges(make([]graph.Label, 3), [][2]graph.Vertex{{0, 1}, {1, 2}, {0, 2}})
	if n := BruteForceCount(tri, k4, 0); n != 24 {
		t.Errorf("triangles in K4 = %d, want 24", n)
	}
	// The limit caps counting.
	if n := BruteForceCount(tri, k4, 10); n != 10 {
		t.Errorf("capped count = %d, want 10", n)
	}
	// Homomorphisms of a path of 3 in K4: 4*3*3 = 36 (middle can't
	// equal its neighbors, ends can coincide).
	path := graph.MustFromEdges(make([]graph.Label, 3), [][2]graph.Vertex{{0, 1}, {1, 2}})
	hom := 0
	BruteForce(path, k4, true, func([]graph.Vertex) bool { hom++; return true })
	if hom != 36 {
		t.Errorf("path homomorphisms in K4 = %d, want 36", hom)
	}
	if iso := BruteForceCount(path, k4, 0); iso != 24 {
		t.Errorf("path isomorphisms in K4 = %d, want 24", iso)
	}
}

func TestRandomGraphConnectedAndSized(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := RandomGraph(rng, 50, 100, 4)
	if g.NumVertices() != 50 {
		t.Errorf("NumVertices = %d", g.NumVertices())
	}
	if !g.IsConnected() {
		t.Error("RandomGraph should be connected (spanning tree included)")
	}
	if g.NumLabels() > 4 {
		t.Errorf("NumLabels = %d", g.NumLabels())
	}
}

func TestRandomConnectedQueryProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := RandomGraph(rng, 60, 150, 3)
	found := 0
	for trial := 0; trial < 20; trial++ {
		q := RandomConnectedQuery(rng, g, 5)
		if q == nil {
			continue
		}
		found++
		if q.NumVertices() != 5 || !q.IsConnected() {
			t.Fatalf("bad extracted query %v", q)
		}
		// Induced subgraphs always embed in their source.
		if BruteForceCount(q, g, 1) == 0 {
			t.Fatal("extracted query has no match in its source graph")
		}
	}
	if found == 0 {
		t.Error("no queries extracted in 20 trials")
	}
}
