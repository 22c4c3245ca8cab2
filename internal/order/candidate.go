package order

import (
	"subgraphmatching/internal/filter"
	"subgraphmatching/internal/graph"
)

// The candidate-size-driven orders: GraphQL, CECI and DP-iso's static
// part.

// ComputeGQL implements GraphQL's left-deep join ordering: start with the
// vertex whose candidate set is smallest, then repeatedly append the
// neighbor of the current prefix with the smallest candidate set.
func ComputeGQL(q *graph.Graph, cand [][]uint32) []graph.Vertex {
	n := q.NumVertices()
	phi := make([]graph.Vertex, 0, n)
	in := make([]bool, n)

	start := graph.Vertex(0)
	for u := 1; u < n; u++ {
		if len(cand[u]) < len(cand[start]) {
			start = graph.Vertex(u)
		}
	}
	phi = append(phi, start)
	in[start] = true
	for len(phi) < n {
		best := graph.NoVertex
		for u := 0; u < n; u++ {
			uu := graph.Vertex(u)
			if in[u] {
				continue
			}
			frontier := false
			for _, up := range q.Neighbors(uu) {
				if in[up] {
					frontier = true
					break
				}
			}
			if !frontier {
				continue
			}
			if best == graph.NoVertex || len(cand[u]) < len(cand[best]) {
				best = uu
			}
		}
		phi = append(phi, best)
		in[best] = true
	}
	return phi
}

// ComputeCECI returns CECI's matching order: the BFS traversal of q from
// CECI's root (argmin |C_NLF(u)|/d(u)).
func ComputeCECI(q, g *graph.Graph) []graph.Vertex {
	root := filter.Root(filter.CECI, q, g)
	t := graph.NewBFSTree(q, root)
	return append([]graph.Vertex(nil), t.Order...)
}

// ComputeDPIso returns DP-iso's BFS order delta from DP-iso's root
// (argmin |C_LDF(u)|/d(u)), with degree-one query vertices postponed to
// the end as the paper describes ("DP-iso decomposes the query vertices
// into the set of degree-one vertices and the set V' of the remaining
// vertices, and prioritizes the vertices in V'"). Used directly as a
// static order, or as the DAG-defining order for the enumerator's
// adaptive mode.
//
// Postponement preserves connected prefixes: a non-root vertex's BFS
// parent always has degree >= 2 (it has both a child and its own
// parent), so removing non-root degree-one vertices from the BFS order
// keeps every remaining parent in the prefix, and each postponed leaf's
// single neighbor precedes it.
func ComputeDPIso(q, g *graph.Graph) []graph.Vertex {
	root := filter.Root(filter.DPIso, q, g)
	t := graph.NewBFSTree(q, root)
	if q.NumVertices() < 3 {
		return append([]graph.Vertex(nil), t.Order...)
	}
	phi := make([]graph.Vertex, 0, q.NumVertices())
	for _, u := range t.Order {
		if u == root || q.Degree(u) > 1 {
			phi = append(phi, u)
		}
	}
	for _, u := range t.Order {
		if u != root && q.Degree(u) == 1 {
			phi = append(phi, u)
		}
	}
	return phi
}
