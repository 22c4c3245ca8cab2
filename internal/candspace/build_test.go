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

// assertTransposes checks w ∈ 𝒜[u→u′](v) ⇔ v ∈ 𝒜[u′→u](w) over every
// materialised pair of s, each list sorted and duplicate-free.
func assertTransposes(t *testing.T, name string, s *Space, cand [][]uint32) {
	t.Helper()
	q := s.Query()
	type edge struct{ v, w uint32 }
	assertSet := func(from, to graph.Vertex, v uint32, adj []uint32) {
		t.Helper()
		for i := 1; i < len(adj); i++ {
			if adj[i-1] >= adj[i] {
				t.Fatalf("%s: A[%d->%d](v%d) = %v is not a sorted set", name, from, to, v, adj)
			}
		}
	}
	for u := 0; u < q.NumVertices(); u++ {
		uu := graph.Vertex(u)
		for _, up := range q.Neighbors(uu) {
			if s.HasPair(uu, up) != s.HasPair(up, uu) {
				t.Fatalf("%s: pair (%d,%d) materialised in one direction only", name, uu, up)
			}
			if !s.HasPair(uu, up) || uu > up {
				continue
			}
			fwd := map[edge]bool{}
			for ci, v := range cand[uu] {
				adj := s.Adjacency(uu, up, ci)
				assertSet(uu, up, v, adj)
				for _, w := range adj {
					fwd[edge{v, w}] = true
				}
			}
			back := 0
			for ci, w := range cand[up] {
				adj := s.Adjacency(up, uu, ci)
				assertSet(up, uu, w, adj)
				for _, v := range adj {
					if !fwd[edge{v, w}] {
						t.Fatalf("%s: v%d ∈ A[%d->%d](v%d) but v%d ∉ A[%d->%d](v%d)", name, v, up, uu, w, w, uu, up, v)
					}
					back++
				}
			}
			if back != len(fwd) {
				t.Fatalf("%s: A[%d->%d] holds %d candidate edges, A[%d->%d] %d", name, uu, up, len(fwd), up, uu, back)
			}
		}
	}
}

// Each query edge is scanned from one end and transposed for the other,
// so the two directions must be the same edge set — whichever end was
// scanned, for the full and the tree variant, at one and four workers.
func TestBuildDirectionsAreTransposes(t *testing.T) {
	cases, withEmpty := 0, 0
	for seed := int64(0); cases < 150; seed++ {
		q, g, cand := buildCase(rand.New(rand.NewSource(seed)))
		if q == nil {
			continue
		}
		cases++
		if slices.ContainsFunc(cand, func(c []uint32) bool { return len(c) == 0 }) {
			withEmpty++
		}
		for name, s := range allBuilds(q, g, cand, graph.NewBFSTree(q, 0).Parent) {
			assertTransposes(t, name, s, cand)
		}
	}
	if withEmpty == 0 {
		t.Fatal("corpus has no empty candidate set")
	}

	// A path 0-1-2-3 whose query edges are the corner cases of the
	// direction choice: (0,1) has equal sets at both ends, so Σ d(v) ties
	// and the vertex id decides; (1,2) has an empty end; (2,3) sets an
	// empty end against isolated vertices only, a tie at 0 with nothing
	// to scan and nothing to transpose.
	rng := rand.New(rand.NewSource(7))
	g := testutil.RandomGraph(rng, 40, 160, 2)
	b := graph.NewBuilder(44, 0)
	for v := 0; v < 44; v++ {
		b.AddVertex(0)
	}
	for _, e := range g.Edges() {
		b.AddEdge(e[0], e[1])
	}
	g = b.MustBuild() // vertices 40..43 are isolated
	q := graph.MustFromEdges([]graph.Label{0, 0, 0, 0}, [][2]graph.Vertex{{0, 1}, {1, 2}, {2, 3}})
	all := make([]uint32, 40)
	for v := range all {
		all[v] = uint32(v)
	}
	cand := [][]uint32{all, all, nil, {40, 41, 42, 43}}
	for name, s := range allBuilds(q, g, cand, graph.NewBFSTree(q, 0).Parent) {
		assertTransposes(t, "ties/"+name, s, cand)
		for ci, v := range all {
			ref := intersect.Hybrid(nil, g.Neighbors(v), all)
			if got := s.Adjacency(0, 1, ci); !slices.Equal(got, ref) {
				t.Fatalf("ties/%s: A[0->1](v%d) = %v, want %v", name, v, got, ref)
			}
			if got := s.Adjacency(1, 0, ci); !slices.Equal(got, ref) {
				t.Fatalf("ties/%s: A[1->0](v%d) = %v, want %v", name, v, got, ref)
			}
		}
	}
}
