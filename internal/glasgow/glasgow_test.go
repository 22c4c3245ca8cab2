package glasgow

import (
	"errors"
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
	if st.MemoryBytes <= 0 {
		t.Error("MemoryBytes should be positive")
	}
}

func TestMemoryBudgetExceeded(t *testing.T) {
	q, g := testutil.PaperQuery(), testutil.PaperData()
	_, err := Solve(q, g, Options{MemoryBudget: 16})
	if !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("err = %v, want ErrOutOfMemory", err)
	}
}

func TestMaxEmbeddings(t *testing.T) {
	// Unlabeled triangle in K6: 6*5*4 = 120 embeddings.
	var edges [][2]graph.Vertex
	for i := 0; i < 6; i++ {
		for j := i + 1; j < 6; j++ {
			edges = append(edges, [2]graph.Vertex{graph.Vertex(i), graph.Vertex(j)})
		}
	}
	g := graph.MustFromEdges(make([]graph.Label, 6), edges)
	q := graph.MustFromEdges(make([]graph.Label, 3), [][2]graph.Vertex{{0, 1}, {1, 2}, {0, 2}})
	st, err := Solve(q, g, Options{MaxEmbeddings: 7})
	if err != nil {
		t.Fatal(err)
	}
	if st.Embeddings != 7 || !st.LimitHit {
		t.Errorf("Embeddings=%d LimitHit=%v", st.Embeddings, st.LimitHit)
	}
	st, err = Solve(q, g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Embeddings != 120 {
		t.Errorf("uncapped Embeddings=%d, want 120", st.Embeddings)
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
		t.Errorf("expected timeout, got %+v", st)
	}
}

func TestNoMatchesEmptyDomain(t *testing.T) {
	// Query label absent from the data graph.
	q := graph.MustFromEdges([]graph.Label{9, 9, 9}, [][2]graph.Vertex{{0, 1}, {1, 2}})
	st, err := Solve(q, testutil.PaperData(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Embeddings != 0 {
		t.Errorf("Embeddings = %d, want 0", st.Embeddings)
	}
}

func TestRejectsDisconnectedQuery(t *testing.T) {
	q := graph.MustFromEdges([]graph.Label{0, 0, 0}, [][2]graph.Vertex{{0, 1}})
	if _, err := Solve(q, testutil.PaperData(), Options{}); err == nil {
		t.Error("expected error for disconnected query")
	}
}

func TestEmptyQuery(t *testing.T) {
	q := graph.MustFromEdges(nil, nil)
	st, err := Solve(q, testutil.PaperData(), Options{})
	if err != nil || st.Embeddings != 0 {
		t.Errorf("empty query: %v %+v", err, st)
	}
}

func TestDominates(t *testing.T) {
	cases := []struct {
		a, b []int
		want bool
	}{
		{[]int{5, 3, 1}, []int{4, 2}, true},
		{[]int{5, 3}, []int{4, 4}, false},
		{[]int{2}, []int{1, 1}, false},
		{nil, nil, true},
	}
	for _, c := range cases {
		if got := dominates(c.a, c.b); got != c.want {
			t.Errorf("dominates(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestParallelCapExact(t *testing.T) {
	var edges [][2]graph.Vertex
	for i := 0; i < 8; i++ {
		for j := i + 1; j < 8; j++ {
			edges = append(edges, [2]graph.Vertex{graph.Vertex(i), graph.Vertex(j)})
		}
	}
	g := graph.MustFromEdges(make([]graph.Label, 8), edges)
	q := graph.MustFromEdges(make([]graph.Label, 3), [][2]graph.Vertex{{0, 1}, {1, 2}, {0, 2}})
	st, err := Solve(q, g, Options{Parallel: 4, MaxEmbeddings: 11})
	if err != nil {
		t.Fatal(err)
	}
	if st.Embeddings != 11 || !st.LimitHit {
		t.Errorf("parallel cap: %+v", st)
	}
}

func TestParallelMemoryBudgetCountsWorkers(t *testing.T) {
	q, g := testutil.PaperQuery(), testutil.PaperData()
	// Find a budget that admits 1 worker but not 64.
	seqNeed := int64(0)
	if st, err := Solve(q, g, Options{}); err == nil {
		seqNeed = st.MemoryBytes
	} else {
		t.Fatal(err)
	}
	if _, err := Solve(q, g, Options{Parallel: 512, MemoryBudget: seqNeed}); !errors.Is(err, ErrOutOfMemory) {
		t.Errorf("expected ErrOutOfMemory for 512 workers at the sequential budget, got %v", err)
	}
}
