package vf2

import (
	"math/rand"
	"testing"
	"time"

	"subgraphmatching/internal/graph"
	"subgraphmatching/internal/testutil"
)

func TestPaperExample(t *testing.T) {
	q, g := testutil.PaperQuery(), testutil.PaperData()
	var got []uint32
	st, err := Solve(q, g, Options{OnMatch: func(m []uint32) bool {
		got = append([]uint32(nil), m...)
		return true
	}})
	if err != nil {
		t.Fatal(err)
	}
	if st.Embeddings != 1 {
		t.Fatalf("Embeddings = %d, want 1", st.Embeddings)
	}
	want := testutil.PaperMatch()
	for u, v := range want {
		if got[u] != v {
			t.Fatalf("match = %v, want %v", got, want)
		}
	}
}

func TestLimits(t *testing.T) {
	var edges [][2]graph.Vertex
	for i := 0; i < 7; i++ {
		for j := i + 1; j < 7; j++ {
			edges = append(edges, [2]graph.Vertex{graph.Vertex(i), graph.Vertex(j)})
		}
	}
	g := graph.MustFromEdges(make([]graph.Label, 7), edges)
	q := graph.MustFromEdges(make([]graph.Label, 3), [][2]graph.Vertex{{0, 1}, {1, 2}, {0, 2}})
	st, err := Solve(q, g, Options{MaxEmbeddings: 9})
	if err != nil {
		t.Fatal(err)
	}
	if st.Embeddings != 9 || !st.LimitHit {
		t.Errorf("cap: %+v", st)
	}
	st, _ = Solve(q, g, Options{})
	if st.Embeddings != 210 {
		t.Errorf("uncapped = %d, want 210", st.Embeddings)
	}
}

func TestTimeLimit(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := testutil.RandomGraph(rng, 300, 6000, 1)
	q := graph.MustFromEdges(make([]graph.Label, 6),
		[][2]graph.Vertex{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0}})
	st, err := Solve(q, g, Options{TimeLimit: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if !st.TimedOut || st.Solved() {
		t.Errorf("expected timeout: %+v", st)
	}
}

func TestEdgeCases(t *testing.T) {
	g := testutil.PaperData()
	empty := graph.MustFromEdges(nil, nil)
	if st, err := Solve(empty, g, Options{}); err != nil || st.Embeddings != 0 {
		t.Error("empty query should return zero matches")
	}
	disc := graph.MustFromEdges([]graph.Label{0, 0, 0}, [][2]graph.Vertex{{0, 1}})
	if _, err := Solve(disc, g, Options{}); err == nil {
		t.Error("expected error for disconnected query")
	}
}
