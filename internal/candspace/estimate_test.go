package candspace

import (
	"math/rand"
	"testing"

	"subgraphmatching/internal/filter"
	"subgraphmatching/internal/graph"
	"subgraphmatching/internal/testutil"
)

func TestEstimateTreeEmbeddingsPaperExample(t *testing.T) {
	q, g := testutil.PaperQuery(), testutil.PaperData()
	cand, err := filter.Run(filter.GQL, q, g)
	if err != nil {
		t.Fatal(err)
	}
	s := BuildFull(q, g, cand)
	delta := graph.NewBFSTree(q, 0).Order
	est := EstimateSpanningTreeEmbeddings(s, delta)
	// The refined space has C = {v0},{v2,v4},{v3,v5},{v10,v12}. The BFS
	// tree is u0->{u1,u2}, u1->u3. Tree embeddings: v0 x (u1,u3 pairs) x
	// (u2 choices): u1=v2 -> u3 in {v12}; u1=v4 -> u3 in {v10,v12};
	// u2 in {v3,v5} independently: (1+2)*2 = 6.
	if est != 6 {
		t.Errorf("estimate = %v, want 6", est)
	}
	// The true (injective, all-edge) count is 1; the tree estimate must
	// be an upper bound.
	if est < 1 {
		t.Error("estimate below true count")
	}
}

func TestEstimateUpperBoundsBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 25; trial++ {
		g := testutil.RandomGraph(rng, 20, 60, 2)
		q := testutil.RandomConnectedQuery(rng, g, 4)
		if q == nil {
			continue
		}
		cand, _ := filter.Run(filter.NLF, q, g)
		if filter.AnyEmpty(cand) {
			continue
		}
		s := BuildFull(q, g, cand)
		delta := graph.NewBFSTree(q, 0).Order
		est := EstimateSpanningTreeEmbeddings(s, delta)
		truth := testutil.BruteForceCount(q, g, 0)
		if est < float64(truth) {
			t.Fatalf("estimate %v < true count %d", est, truth)
		}
	}
}

func TestEstimateEmptyQuery(t *testing.T) {
	q := graph.MustFromEdges(nil, nil)
	s := BuildFull(q, testutil.PaperData(), nil)
	if got := EstimateSpanningTreeEmbeddings(s, nil); got != 0 {
		t.Errorf("estimate on empty query = %v", got)
	}
}

func TestEstimateZeroOnDeadCandidates(t *testing.T) {
	// A candidate space where one vertex's candidates have no edges to
	// its parent's candidates must estimate 0.
	q := testutil.PaperQuery()
	g := testutil.PaperData()
	cand := [][]uint32{{0}, {2, 4}, {3, 5}, {8}} // v8 has no B/C neighbors in these sets
	s := BuildFull(q, g, cand)
	delta := graph.NewBFSTree(q, 0).Order
	if got := EstimateSpanningTreeEmbeddings(s, delta); got != 0 {
		t.Errorf("estimate = %v, want 0", got)
	}
}
