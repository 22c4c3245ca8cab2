package order

import (
	"subgraphmatching/internal/candspace"
	"subgraphmatching/internal/graph"
	"subgraphmatching/internal/par"
)

// dpWeightsMinFanout gates the per-level fan-out: levels with fewer
// candidates than this run inline, because spawning goroutines per BFS
// level costs more than the weight sums they would compute.
const dpWeightsMinFanout = 64

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
// evaluated bottom-up along the reverse of delta. Leaves (no tree-like
// children) have weight 1. The result indexes [queryVertex][candIdx] and
// plugs into enumerate.Options.AdaptiveWeights.
//
// Each level's per-candidate weight sums fan out over `workers`
// goroutines (≤ 1 = inline). The levels themselves stay sequential
// (level i reads the weights of every deeper level), but within a level
// each candidate's weight depends only on already-finished levels, so
// the output is byte-identical for every worker count: w[ci] is a
// fixed-order product of fixed-order sums regardless of which worker
// computes it.
func BuildDPWeights(q *graph.Graph, space *candspace.Space, delta []graph.Vertex, workers int) [][]float64 {
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
		if len(treeChildren[u]) == 0 {
			// Leaf of the tree-like decomposition: every candidate has
			// weight 1, no adjacency walks to fan out.
			for ci := range w {
				w[ci] = 1
			}
			weights[u] = w
			continue
		}
		pw := workers
		if len(c) < dpWeightsMinFanout {
			pw = 1
		}
		par.Run(pw, len(c), func(_, ci int) uint64 {
			prod := 1.0
			var walked uint64
			for _, child := range treeChildren[u] {
				sum := 0.0
				adj := space.Adjacency(u, child, ci)
				walked += uint64(len(adj))
				for _, v := range adj {
					if j := space.CandidateIndex(child, v); j >= 0 {
						sum += weights[child][j]
					}
				}
				prod *= sum
			}
			w[ci] = prod
			return walked + 1
		})
		weights[u] = w
	}
	return weights
}
