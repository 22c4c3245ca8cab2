package filter

import (
	"fmt"

	"subgraphmatching/internal/graph"
)

// Root returns the BFS root the tree-based filter m (CFL, CECI or
// DPIso) starts from. It is exported because the corresponding ordering
// methods (package order) and the tree-shaped candidate space must use
// the same deterministic root.
//
//   - CFL: among the (up to) three core vertices with minimum
//     label-frequency/degree ratio, the one with the smallest NLF
//     candidate set. Queries without a 2-core fall back to all vertices.
//   - CECI: argmin |C_NLF(u)| / d(u).
//   - DPIso: argmin |C_LDF(u)| / d(u).
//
// The dominant cost of every rule is sizing NLF/LDF candidate sets — one
// scan of a label pool per query vertex. Ties go to the lowest vertex
// id. Root panics for a method that has no root rule.
func Root(m Method, q, g *graph.Graph) graph.Vertex {
	switch m {
	case CFL:
		return cflRoot(q, g)
	case CECI, DPIso:
		scores := make([]float64, q.NumVertices())
		for u := range scores {
			uu := graph.Vertex(u)
			scores[u] = float64(poolSize(q, g, uu, m == CECI)) / float64(q.Degree(uu))
		}
		return argminRoot(scores)
	}
	panic(fmt.Sprintf("filter: method %v has no root rule", m))
}

func cflRoot(q, g *graph.Graph) graph.Vertex {
	core := q.TwoCore()
	pool := make([]graph.Vertex, 0, q.NumVertices())
	for u := 0; u < q.NumVertices(); u++ {
		if core[u] {
			pool = append(pool, graph.Vertex(u))
		}
	}
	if len(pool) == 0 {
		for u := 0; u < q.NumVertices(); u++ {
			pool = append(pool, graph.Vertex(u))
		}
	}
	// Rank by |{v : L(v)=L(u)}| / d(u), keep the three smallest.
	rank := func(u graph.Vertex) float64 {
		return float64(g.LabelFrequency(q.Label(u))) / float64(q.Degree(u))
	}
	top := make([]graph.Vertex, 0, 3)
	for _, u := range pool {
		top = append(top, u)
		for i := len(top) - 1; i > 0 && rank(top[i]) < rank(top[i-1]); i-- {
			top[i], top[i-1] = top[i-1], top[i]
		}
		if len(top) > 3 {
			top = top[:3]
		}
	}
	best := top[0]
	bestSize := -1
	for _, u := range top {
		if size := poolSize(q, g, u, true); bestSize < 0 || size < bestSize {
			best, bestSize = u, size
		}
	}
	return best
}

// poolSize is |C_LDF(u)|, or |C_NLF(u)| when nlf is set.
func poolSize(q, g *graph.Graph, u graph.Vertex, nlf bool) int {
	var qx, gx *graph.NLF
	if nlf {
		qx, gx = q.NLF(), g.NLF()
	}
	n := 0
	for _, v := range g.VerticesWithLabel(q.Label(u)) {
		if g.Degree(v) >= q.Degree(u) && (!nlf || nlfOK(qx, gx, u, v)) {
			n++
		}
	}
	return n
}

// argminRoot is the deterministic reduction shared by the root rules:
// the lowest-scoring vertex, lowest id on ties.
func argminRoot(scores []float64) graph.Vertex {
	best := graph.Vertex(0)
	bestScore := -1.0
	for u, score := range scores {
		if bestScore < 0 || score < bestScore {
			best, bestScore = graph.Vertex(u), score
		}
	}
	return best
}
