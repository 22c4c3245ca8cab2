// Package testutil provides shared fixtures for the test suites: the
// paper's Figure 1 running-example graphs, deterministic random graph
// generators, and a brute-force reference matcher that anchors the
// differential tests.
package testutil

import (
	"math/rand"

	"subgraphmatching/internal/graph"
)

// Labels used by the paper's running example.
const (
	LabelA graph.Label = 0
	LabelB graph.Label = 1
	LabelC graph.Label = 2
	LabelD graph.Label = 3
	LabelE graph.Label = 4
)

// PaperQuery returns the query graph q of the paper's Figure 1(a):
// u0(A)-u1(B), u0-u2(C), u1-u2, u1-u3(D), u2-u3.
func PaperQuery() *graph.Graph {
	return graph.MustFromEdges(
		[]graph.Label{LabelA, LabelB, LabelC, LabelD},
		[][2]graph.Vertex{{0, 1}, {0, 2}, {1, 2}, {1, 3}, {2, 3}},
	)
}

// PaperData returns a data graph consistent with every running example in
// the paper's Section 3 (Examples 3.1-3.4): the candidate sets produced by
// each filtering method, the pruning steps, and the single match
// {(u0,v0),(u1,v4),(u2,v5),(u3,v12)} all hold on this graph.
func PaperData() *graph.Graph {
	labels := []graph.Label{
		LabelA, // v0
		LabelC, // v1
		LabelB, // v2
		LabelC, // v3
		LabelB, // v4
		LabelC, // v5
		LabelB, // v6
		LabelC, // v7
		LabelD, // v8
		LabelE, // v9
		LabelD, // v10
		LabelE, // v11
		LabelD, // v12
	}
	edges := [][2]graph.Vertex{
		{0, 1}, {0, 2}, {0, 3}, {0, 4}, {0, 5}, {0, 6}, {0, 9},
		{1, 2}, {1, 8},
		{2, 3}, {2, 12},
		{3, 10},
		{4, 5}, {4, 10}, {4, 12},
		{5, 12},
		{6, 7}, {6, 10},
		{9, 11},
	}
	return graph.MustFromEdges(labels, edges)
}

// PaperMatch is the single subgraph isomorphism from PaperQuery to
// PaperData, indexed by query vertex.
func PaperMatch() []graph.Vertex { return []graph.Vertex{0, 4, 5, 12} }

// RandomGraph generates a connected-ish labeled Erdos-Renyi-style graph
// with n vertices, approximately m edges and numLabels labels, using the
// given seed. Used by property-based and agreement tests.
func RandomGraph(rng *rand.Rand, n, m, numLabels int) *graph.Graph {
	b := graph.NewBuilder(n, m+n)
	for i := 0; i < n; i++ {
		b.AddVertex(graph.Label(rng.Intn(numLabels)))
	}
	// Random spanning tree first so the graph is connected, then extra
	// random edges.
	for i := 1; i < n; i++ {
		b.AddEdge(graph.Vertex(i), graph.Vertex(rng.Intn(i)))
	}
	for i := 0; i < m; i++ {
		u := rng.Intn(n)
		v := rng.Intn(n)
		if u != v {
			b.AddEdge(graph.Vertex(u), graph.Vertex(v))
		}
	}
	return b.MustBuild()
}

// RandomConnectedQuery extracts a connected query graph with k vertices
// from g via random walk, mirroring the paper's query generation. Returns
// nil if the walk cannot reach k distinct vertices (e.g. tiny components).
func RandomConnectedQuery(rng *rand.Rand, g *graph.Graph, k int) *graph.Graph {
	if g.NumVertices() == 0 || k <= 0 {
		return nil
	}
	start := graph.Vertex(rng.Intn(g.NumVertices()))
	seen := map[graph.Vertex]bool{start: true}
	verts := []graph.Vertex{start}
	cur := start
	for steps := 0; len(verts) < k && steps < 50*k; steps++ {
		ns := g.Neighbors(cur)
		if len(ns) == 0 {
			break
		}
		next := ns[rng.Intn(len(ns))]
		if !seen[next] {
			seen[next] = true
			verts = append(verts, next)
		}
		cur = next
	}
	if len(verts) < k {
		return nil
	}
	q, _ := g.InducedSubgraph(verts)
	if !q.IsConnected() {
		return nil
	}
	return q
}

// BruteForce enumerates every embedding of q in g by naive
// backtracking over the query vertices in id order, with no pruning
// beyond label (and, for isomorphisms, degree) and adjacency checks:
// subgraph isomorphisms, or homomorphisms (label- and edge-preserving,
// injectivity not required) when hom is set. visit receives each
// mapping, indexed by query vertex and valid only during the call, and
// returns false to stop the enumeration. It is the ground truth the
// agreement tests compare against; small inputs only.
func BruteForce(q, g *graph.Graph, hom bool, visit func(m []graph.Vertex) bool) {
	n := q.NumVertices()
	mapping := make([]graph.Vertex, n)
	used := make([]bool, g.NumVertices())
	var rec func(i int) bool // returns false to stop early
	rec = func(i int) bool {
		if i == n {
			return visit(mapping)
		}
		u := graph.Vertex(i)
		for v := 0; v < g.NumVertices(); v++ {
			dv := graph.Vertex(v)
			if g.Label(dv) != q.Label(u) || !hom && (used[v] || g.Degree(dv) < q.Degree(u)) {
				continue
			}
			ok := true
			for _, un := range q.Neighbors(u) {
				if un < u && !g.HasEdge(mapping[un], dv) {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			mapping[i] = dv
			used[v] = true
			cont := rec(i + 1)
			used[v] = false
			if !cont {
				return false
			}
		}
		return true
	}
	rec(0)
}

// BruteForceCount counts the subgraph isomorphisms from q to g with
// BruteForce, stopping at limit (0 = unlimited).
func BruteForceCount(q, g *graph.Graph, limit uint64) uint64 {
	var count uint64
	BruteForce(q, g, false, func([]graph.Vertex) bool {
		count++
		return limit == 0 || count < limit
	})
	return count
}

// BruteForceMatches returns all subgraph isomorphisms (indexed by query
// vertex) from q to g; small inputs only.
func BruteForceMatches(q, g *graph.Graph) [][]graph.Vertex {
	var out [][]graph.Vertex
	BruteForce(q, g, false, func(m []graph.Vertex) bool {
		out = append(out, append([]graph.Vertex(nil), m...))
		return true
	})
	return out
}

// IsValidEmbedding verifies that mapping is a subgraph isomorphism from q
// to g: labels match, the mapping is injective, and every query edge maps
// to a data edge.
func IsValidEmbedding(q, g *graph.Graph, mapping []graph.Vertex) bool {
	if len(mapping) != q.NumVertices() {
		return false
	}
	seen := map[graph.Vertex]bool{}
	for u := 0; u < q.NumVertices(); u++ {
		v := mapping[u]
		if int(v) >= g.NumVertices() || seen[v] || q.Label(graph.Vertex(u)) != g.Label(v) {
			return false
		}
		seen[v] = true
	}
	valid := true
	q.EachEdge(func(a, b graph.Vertex) bool {
		if !g.HasEdge(mapping[a], mapping[b]) {
			valid = false
			return false
		}
		return true
	})
	return valid
}
