package order

import (
	"subgraphmatching/internal/candspace"
	"subgraphmatching/internal/graph"
)

// BuildDPWeights builds DP-iso's weight array over the candidate space:
// for each query vertex u and candidate v, an estimate of the number of
// embeddings of the maximal tree-like path starting at u into the
// candidate space (Section 3.2). A path is tree-like w.r.t. delta when
// every vertex except its start has exactly one backward neighbor; here
// that is computed over the BFS tree induced by delta: the tree children
// of u whose only backward neighbor is u extend u's tree-like paths, and
//
//	W(u, v) = product over such children c of sum_{v' in A[u->c](v)} W(c, v')
//
// (𝒜 holds v' as its position in C(c), which is where W(c, ·) keeps it)
//
// evaluated bottom-up along the reverse of delta. Leaves (no tree-like
// children) have weight 1. The result indexes [queryVertex][candIdx] and
// plugs into enumerate.Options.AdaptiveWeights. It reads 𝒜 only from
// earlier to later in delta, so a space built along delta holds every
// pair it reads.
func BuildDPWeights(q *graph.Graph, space *candspace.Space, delta []graph.Vertex) [][]float64 {
	n := q.NumVertices()
	pos := make([]int, n)
	for i, u := range delta {
		pos[u] = i
	}
	// backCount[u] = number of backward neighbors w.r.t. delta.
	backCount := make([]int, n)
	for u := 0; u < n; u++ {
		for _, un := range q.Neighbors(graph.Vertex(u)) {
			if pos[un] < pos[u] {
				backCount[u]++
			}
		}
	}
	// treeChildren[u]: forward neighbors whose only backward neighbor is u.
	treeChildren := make([][]graph.Vertex, n)
	for u := 0; u < n; u++ {
		uu := graph.Vertex(u)
		for _, un := range q.Neighbors(uu) {
			if pos[un] > pos[uu] && backCount[un] == 1 {
				treeChildren[u] = append(treeChildren[u], un)
			}
		}
	}

	weights := make([][]float64, n)
	for i := n - 1; i >= 0; i-- {
		u := delta[i]
		c := space.Candidates(u)
		w := make([]float64, len(c))
		for ci := range w {
			// A leaf of the tree-like decomposition has weight 1: the
			// empty product.
			prod := 1.0
			for _, child := range treeChildren[u] {
				sum := 0.0
				for _, j := range space.Adjacency(u, child, ci) {
					sum += weights[child][j]
				}
				prod *= sum
			}
			w[ci] = prod
		}
		weights[u] = w
	}
	return weights
}
