package core

import (
	"sync"
	"testing"

	"subgraphmatching/internal/enumerate"
	"subgraphmatching/internal/filter"
	"subgraphmatching/internal/graph"
	"subgraphmatching/internal/order"
	"subgraphmatching/internal/testutil"
)

func TestParallelRespectsCapExactly(t *testing.T) {
	// Unlabeled triangle in K9: 9*8*7 = 504 embeddings.
	var edges [][2]graph.Vertex
	for i := 0; i < 9; i++ {
		for j := i + 1; j < 9; j++ {
			edges = append(edges, [2]graph.Vertex{graph.Vertex(i), graph.Vertex(j)})
		}
	}
	g := graph.MustFromEdges(make([]graph.Label, 9), edges)
	q := graph.MustFromEdges(make([]graph.Label, 3), [][2]graph.Vertex{{0, 1}, {1, 2}, {0, 2}})
	cfg := Config{Filter: filter.LDF, Order: order.GQL, Local: enumerate.Intersect}
	for _, cap := range []uint64{1, 7, 100, 504, 1000} {
		res, err := Match(q, g, cfg, Limits{MaxEmbeddings: cap, Parallel: 4})
		if err != nil {
			t.Fatal(err)
		}
		want := cap
		if cap > 504 {
			want = 504
		}
		if res.Embeddings != want {
			t.Errorf("cap %d: got %d embeddings, want %d", cap, res.Embeddings, want)
		}
		if cap <= 504 && !res.LimitHit {
			t.Errorf("cap %d: LimitHit not set", cap)
		}
	}
}

func TestParallelOnMatchSerializedAndStoppable(t *testing.T) {
	var edges [][2]graph.Vertex
	for i := 0; i < 8; i++ {
		for j := i + 1; j < 8; j++ {
			edges = append(edges, [2]graph.Vertex{graph.Vertex(i), graph.Vertex(j)})
		}
	}
	g := graph.MustFromEdges(make([]graph.Label, 8), edges)
	q := graph.MustFromEdges(make([]graph.Label, 3), [][2]graph.Vertex{{0, 1}, {1, 2}, {0, 2}})
	cfg := Config{Filter: filter.LDF, Order: order.GQL, Local: enumerate.Intersect}

	var mu sync.Mutex
	inCallback := false
	calls := 0
	res, err := Match(q, g, cfg, Limits{Parallel: 4, OnMatch: func(m []uint32) bool {
		mu.Lock()
		if inCallback {
			t.Error("OnMatch reentered concurrently")
		}
		inCallback = true
		calls++
		n := calls
		inCallback = false
		mu.Unlock()
		return n < 10
	}})
	if err != nil {
		t.Fatal(err)
	}
	// The callback stopped after 10 calls; workers may each have found a
	// few more before noticing, but the search must have stopped well
	// short of the full 336.
	if calls < 10 || calls > 50 {
		t.Errorf("OnMatch called %d times", calls)
	}
	_ = res
}

func TestParallelPaperExample(t *testing.T) {
	q, g := testutil.PaperQuery(), testutil.PaperData()
	for _, a := range []Algorithm{QuickSI, GraphQL, CECI, DPIso, Optimized} {
		res, err := Match(q, g, PresetConfig(a, q, g), Limits{Parallel: 3})
		if err != nil {
			t.Fatalf("%v: %v", a, err)
		}
		if res.Embeddings != 1 {
			t.Errorf("%v parallel: %d embeddings, want 1", a, res.Embeddings)
		}
	}
}

func TestParallelMoreWorkersThanCandidates(t *testing.T) {
	q, g := testutil.PaperQuery(), testutil.PaperData()
	res, err := Match(q, g, PresetConfig(Optimized, q, g), Limits{Parallel: 64})
	if err != nil {
		t.Fatal(err)
	}
	if res.Embeddings != 1 {
		t.Errorf("got %d embeddings", res.Embeddings)
	}
}
