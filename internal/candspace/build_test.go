package candspace

import (
	"math/rand"
	"slices"
	"testing"

	"subgraphmatching/internal/graph"
	"subgraphmatching/internal/intersect"
	"subgraphmatching/internal/testutil"
)

// buildCase draws a data graph with isolated vertices, a connected
// query, and arbitrary sorted candidate sets — random subsets of V(g)
// that ignore labels, include degree-0 vertices and are sometimes
// empty — so the build is exercised on its own contract rather than on
// what a filter happens to produce.
func buildCase(rng *rand.Rand) (q, g *graph.Graph, cand [][]uint32) {
	n := 10 + rng.Intn(60)
	b := graph.NewBuilder(n, 4*n)
	for i := 0; i < n; i++ {
		b.AddVertex(graph.Label(rng.Intn(3)))
	}
	for i := 0; i < 4*n; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v && u%6 != 0 && v%6 != 0 {
			b.AddEdge(graph.Vertex(u), graph.Vertex(v))
		}
	}
	g = b.MustBuild()
	q = testutil.RandomConnectedQuery(rng, g, 2+rng.Intn(5))
	if q == nil {
		return nil, nil, nil
	}
	cand = make([][]uint32, q.NumVertices())
	for u := range cand {
		if rng.Intn(6) == 0 {
			continue // empty set
		}
		keep := 1 + rng.Intn(3)
		for v := 0; v < n; v++ {
			if rng.Intn(keep+1) > 0 {
				cand[u] = append(cand[u], uint32(v))
			}
		}
	}
	return q, g, cand
}

// buildAt is Build without the tally.
func buildAt(q, g *graph.Graph, cand [][]uint32, parent []graph.Vertex, workers int) *Space {
	s, _ := Build(q, g, cand, parent, workers)
	return s
}

// allBuilds runs both structure shapes at 1 and 4 workers.
func allBuilds(q, g *graph.Graph, cand [][]uint32, parent []graph.Vertex) map[string]*Space {
	return map[string]*Space{
		"full/1": BuildFull(q, g, cand),
		"full/4": buildAt(q, g, cand, nil, 4),
		"tree/1": buildAt(q, g, cand, parent, 1),
		"tree/4": buildAt(q, g, cand, parent, 4),
	}
}

// The bitmap-scan build is held to the definition 𝒜[u→u′](v) = N(v) ∩
// C(u′), computed by the sorted-list intersection the build used to
// call per candidate.
func TestBuildMatchesIntersectReference(t *testing.T) {
	cases := 0
	for seed := int64(0); cases < 150; seed++ {
		q, g, cand := buildCase(rand.New(rand.NewSource(seed)))
		if q == nil {
			continue
		}
		cases++
		parent := graph.NewBFSTree(q, 0).Parent
		for name, s := range allBuilds(q, g, cand, parent) {
			tree := name[:4] == "tree"
			for u := 0; u < q.NumVertices(); u++ {
				uu := graph.Vertex(u)
				for _, up := range q.Neighbors(uu) {
					want := !tree || parent[uu] == up || parent[up] == uu
					if s.HasPair(uu, up) != want {
						t.Fatalf("seed %d %s: HasPair(%d,%d) = %v, want %v", seed, name, uu, up, !want, want)
					}
					if !want {
						continue
					}
					for ci, v := range cand[u] {
						ref := intersect.Hybrid(nil, g.Neighbors(v), cand[up])
						if got := s.Adjacency(uu, up, ci); !slices.Equal(got, ref) {
							t.Fatalf("seed %d %s: A[%d->%d](v%d) = %v, want %v", seed, name, uu, up, v, got, ref)
						}
					}
				}
			}
		}
	}
}

// MemoryBytes — what the plan cache charges — counts len(targets), so a
// materialised CSR must hold no capacity beyond its length, at any
// worker count.
func TestTargetsHoldNoSpareCapacity(t *testing.T) {
	cases := 0
	for seed := int64(0); cases < 50; seed++ {
		q, g, cand := buildCase(rand.New(rand.NewSource(seed)))
		if q == nil {
			continue
		}
		cases++
		for name, s := range allBuilds(q, g, cand, graph.NewBFSTree(q, 0).Parent) {
			for u, row := range s.edges {
				for i, csr := range row {
					if csr != nil && cap(csr.targets) != len(csr.targets) {
						t.Fatalf("seed %d %s: edges[%d][%d].targets has len %d, cap %d",
							seed, name, u, i, len(csr.targets), cap(csr.targets))
					}
				}
			}
		}
	}
}
