package order

import (
	"math/rand"
	"testing"

	"subgraphmatching/internal/candspace"
	"subgraphmatching/internal/filter"
	"subgraphmatching/internal/graph"
	"subgraphmatching/internal/testutil"
)

func costFixture(t *testing.T) (*graph.Graph, *graph.Graph, [][]uint32, *candspace.Space) {
	t.Helper()
	q, g := testutil.PaperQuery(), testutil.PaperData()
	cand, err := filter.Run(filter.GQL, q, g)
	if err != nil {
		t.Fatal(err)
	}
	return q, g, cand, candspace.BuildFull(q, g, cand)
}

func TestEstimateCostBasics(t *testing.T) {
	q, g, cand, space := costFixture(t)
	_ = g
	phi, _ := Compute(GQL, q, g, cand)
	cost := EstimateCost(q, space, phi)
	if cost <= 0 {
		t.Fatalf("cost = %v, want > 0", cost)
	}
	// Cost must include at least the root candidates.
	if cost < float64(len(space.Candidates(phi[0]))) {
		t.Errorf("cost %v below root candidate count", cost)
	}
	// Degenerate inputs.
	if EstimateCost(q, space, nil) != 0 {
		t.Error("nil order should cost 0")
	}
	empty := graph.MustFromEdges(nil, nil)
	if EstimateCost(empty, space, nil) != 0 {
		t.Error("empty query should cost 0")
	}
}

func TestEstimateCostPrefersSelectiveStart(t *testing.T) {
	q, g, cand, space := costFixture(t)
	_ = g
	_ = cand
	// Starting at u0 (1 candidate) must not cost more than starting at
	// u1 (2 candidates) with an otherwise-identical BFS shape.
	costFrom := func(root graph.Vertex) float64 {
		tr := graph.NewBFSTree(q, root)
		return EstimateCost(q, space, tr.Order)
	}
	if costFrom(0) > costFrom(1) {
		t.Errorf("cost from u0 (%v) > cost from u1 (%v)", costFrom(0), costFrom(1))
	}
}

func TestBestReturnsValidOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 10; trial++ {
		g := testutil.RandomGraph(rng, 30, 90, 3)
		q := testutil.RandomConnectedQuery(rng, g, 5)
		if q == nil {
			continue
		}
		cand, err := filter.Run(filter.GQL, q, g)
		if err != nil || filter.AnyEmpty(cand) {
			continue
		}
		space := candspace.BuildFull(q, g, cand)
		m, phi, err := Best(q, g, cand, space, 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := Validate(q, phi); err != nil {
			t.Fatalf("Best(%v) returned invalid order: %v", m, err)
		}
		// Best's cost must be minimal among all methods.
		bestCost := EstimateCost(q, space, phi)
		for _, om := range Methods() {
			p2, err := Compute(om, q, g, cand)
			if err != nil {
				t.Fatal(err)
			}
			if c := EstimateCost(q, space, p2); c < bestCost {
				t.Errorf("method %v has cost %v below Best's %v", om, c, bestCost)
			}
		}
	}
}
