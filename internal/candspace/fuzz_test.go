package candspace

import (
	"math/rand"
	"slices"
	"testing"

	"subgraphmatching/internal/graph"
	"subgraphmatching/internal/testutil"
)

// decodeFuzzSpace grows a data graph from raw fuzz bytes — the first two
// bytes size the vertex set (up to 130, so a bitmap of C(u′) spans
// several words) and the label alphabet, the next n label the vertices,
// the rest are consumed pairwise as edges — then draws a connected query
// of 2–6 vertices and, per query vertex, a sorted random subset of the
// vertices carrying its label (sometimes empty) from seed.
func decodeFuzzSpace(data []byte, seed int64) (q, g *graph.Graph, cand [][]uint32) {
	if len(data) < 4 {
		return nil, nil, nil
	}
	n := 3 + int(data[0])%128
	numLabels := 1 + int(data[1])%3
	b := graph.NewBuilder(n, len(data)/2)
	for i := 0; i < n; i++ {
		var l graph.Label
		if 2+i < len(data) {
			l = graph.Label(data[2+i]) % graph.Label(numLabels)
		}
		b.AddVertex(l)
	}
	for i := 2 + n; i+1 < len(data); i += 2 {
		u, v := graph.Vertex(data[i])%graph.Vertex(n), graph.Vertex(data[i+1])%graph.Vertex(n)
		if u != v {
			b.AddEdge(u, v)
		}
	}
	g, err := b.Build()
	if err != nil || g.NumEdges() == 0 {
		return nil, nil, nil
	}
	rng := rand.New(rand.NewSource(seed))
	if q = testutil.RandomConnectedQuery(rng, g, 2+rng.Intn(5)); q == nil {
		return nil, nil, nil
	}
	cand = make([][]uint32, q.NumVertices())
	for u := range cand {
		if rng.Intn(6) == 0 {
			continue
		}
		keep := 1 + rng.Intn(3)
		for _, v := range g.VerticesWithLabel(q.Label(graph.Vertex(u))) {
			if rng.Intn(keep+1) > 0 {
				cand[u] = append(cand[u], v)
			}
		}
	}
	return q, g, cand
}

// FuzzBuildPositions holds the candidate space to its definition on
// fuzzed (q, g, C) and a random order φ, for the full and the tree
// variant. Without φ: every materialised list is ascending positions in
// C(u′) that translate to exactly N(C(u)[i]) ∩ C(u′); the two
// directions of a query edge are transposes of each other; and after
// MaterializeBlocks every block view decodes to its list. With φ: every
// kept pair — a materialised one from earlier to later in φ — is the
// full build's, no other pair exists, and no targets window holds
// spare capacity.
func FuzzBuildPositions(f *testing.F) {
	f.Add([]byte{1, 2, 0, 1, 0, 1, 1, 0, 1, 2, 2, 3, 3, 0, 0, 2}, int64(1))
	f.Add([]byte{7, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 0, 0, 3}, int64(7))
	f.Add([]byte{5, 3, 2, 1, 0, 2, 1, 0, 1, 0, 2, 1, 3, 2, 4, 3, 0, 4, 1, 3}, int64(42))
	dense := []byte{100, 1}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 103+600; i++ {
		dense = append(dense, byte(rng.Intn(256)))
	}
	f.Add(dense, int64(5)) // 103 vertices: bitmaps of two words
	f.Fuzz(func(t *testing.T, data []byte, seed int64) {
		q, g, cand := decodeFuzzSpace(data, seed)
		if q == nil {
			t.Skip()
		}
		n := q.NumVertices()
		parent := graph.NewBFSTree(q, graph.Vertex(uint64(seed)%uint64(n))).Parent
		phi, pos := make([]graph.Vertex, n), make([]int, n)
		for i, u := range rand.New(rand.NewSource(^seed)).Perm(n) {
			phi[i], pos[u] = graph.Vertex(u), i
		}
		builds := allBuilds(q, g, cand, parent)
		for name, s := range builds {
			s.MaterializeBlocks()
			for u := 0; u < n; u++ {
				uu := graph.Vertex(u)
				for _, up := range q.Neighbors(uu) {
					want := name == "full" || parent[uu] == up || parent[up] == uu
					if s.HasPair(uu, up) != want {
						t.Fatalf("%s: HasPair(%d,%d) = %v, want %v", name, uu, up, !want, want)
					}
					if !want {
						continue
					}
					p, back := s.Pair(uu, up), s.Pair(up, uu)
					edges := 0
					for ci, v := range cand[uu] {
						adj := p.Adjacency(ci)
						var ref []uint32
						for j, w := range cand[up] {
							if g.HasEdge(v, w) {
								ref = append(ref, uint32(j))
							}
						}
						if !slices.Equal(adj, ref) {
							t.Fatalf("%s: A[%d->%d](%d) = %v, want positions %v of N(v%d) ∩ C(u%d)", name, uu, up, ci, adj, ref, v, up)
						}
						if got := p.View(ci).Elements(nil); !slices.Equal(got, adj) {
							t.Fatalf("%s: (%d->%d)[%d]: view decodes %v, list %v", name, uu, up, ci, got, adj)
						}
						for _, j := range adj {
							if _, ok := slices.BinarySearch(back.Adjacency(int(j)), uint32(ci)); !ok {
								t.Fatalf("%s: %d ∈ A[%d->%d](%d) but %d ∉ A[%d->%d](%d)", name, j, uu, up, ci, ci, up, uu, j)
							}
						}
						edges += len(adj)
					}
					for cj := range cand[up] {
						edges -= len(back.Adjacency(cj))
					}
					if edges != 0 {
						t.Fatalf("%s: A[%d->%d] and A[%d->%d] hold different edge counts", name, uu, up, up, uu)
					}
				}
			}
		}
		for name, s := range map[string]*Space{
			"full/phi": Build(q, g, cand, nil, phi),
			"tree/phi": Build(q, g, cand, parent, phi),
		} {
			s.MaterializeBlocks()
			for u := 0; u < n; u++ {
				uu := graph.Vertex(u)
				for _, up := range q.Neighbors(uu) {
					want := pos[uu] < pos[up] && (name == "full/phi" || parent[uu] == up || parent[up] == uu)
					if s.HasPair(uu, up) != want {
						t.Fatalf("%s: HasPair(%d,%d) = %v, want %v (φ = %v)", name, uu, up, !want, want, phi)
					}
					if !want {
						continue
					}
					p, ref := s.Pair(uu, up), builds["full"].Pair(uu, up)
					for ci := range cand[uu] {
						adj := p.Adjacency(ci)
						if !slices.Equal(adj, ref.Adjacency(ci)) {
							t.Fatalf("%s: A[%d->%d](%d) = %v, the full build's %v", name, uu, up, ci, adj, ref.Adjacency(ci))
						}
						if got := p.View(ci).Elements(nil); !slices.Equal(got, adj) {
							t.Fatalf("%s: (%d->%d)[%d]: view decodes %v, list %v", name, uu, up, ci, got, adj)
						}
					}
				}
			}
			for u, row := range s.edges {
				for i, csr := range row {
					if csr != nil && cap(csr.targets) != len(csr.targets) {
						t.Fatalf("%s: edges[%d][%d].targets has len %d, cap %d", name, u, i, len(csr.targets), cap(csr.targets))
					}
				}
			}
		}
	})
}
