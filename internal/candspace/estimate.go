package candspace

import "subgraphmatching/internal/graph"

// EstimateSpanningTreeEmbeddings estimates the number of embeddings of
// the spanning tree induced by the BFS order delta into the candidate
// space: a bottom-up dynamic program where each candidate's weight is
// the product over tree children of the summed child weights reachable
// through 𝒜. Non-tree edges are ignored, so the estimate upper-bounds
// the true embedding count in the space; CFL's and DP-iso's ordering
// cost models are built from the same quantity.
func EstimateSpanningTreeEmbeddings(s *Space, delta []graph.Vertex) float64 {
	q := s.q
	n := q.NumVertices()
	if n == 0 {
		return 0
	}
	pos := make([]int, n)
	for i, u := range delta {
		pos[u] = i
	}
	// Tree parent of u: its earliest-positioned backward neighbor.
	parent := make([]graph.Vertex, n)
	children := make([][]graph.Vertex, n)
	for _, u := range delta[1:] {
		best := graph.NoVertex
		for _, un := range q.Neighbors(u) {
			if pos[un] < pos[u] && (best == graph.NoVertex || pos[un] < pos[best]) {
				best = un
			}
		}
		parent[u] = best
		if best != graph.NoVertex {
			children[best] = append(children[best], u)
		}
	}

	weights := make([][]float64, n)
	for i := n - 1; i >= 0; i-- {
		u := delta[i]
		c := s.candidates[u]
		w := make([]float64, len(c))
		for ci := range c {
			prod := 1.0
			for _, ch := range children[u] {
				sum := 0.0
				for _, j := range s.Adjacency(u, ch, ci) {
					sum += weights[ch][j]
				}
				prod *= sum
				if prod == 0 {
					break
				}
			}
			w[ci] = prod
		}
		weights[u] = w
	}
	total := 0.0
	for _, w := range weights[delta[0]] {
		total += w
	}
	return total
}
