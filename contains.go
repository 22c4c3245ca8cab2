package subgraphmatching

import (
	"subgraphmatching/internal/candspace"
	"subgraphmatching/internal/filter"
	"subgraphmatching/internal/order"
)

// Contains reports whether g contains at least one embedding of q — the
// subgraph containment decision the paper discusses in Section 2.2
// (following the authors' approach of answering containment with the
// preprocessing-enumeration matching algorithm directly, no indices).
// Options' Algorithm/Custom/TimeLimit fields apply; MaxEmbeddings is
// forced to 1.
func Contains(q, g *Graph, opts Options) (bool, error) {
	opts.MaxEmbeddings = 1
	res, err := Match(q, g, opts)
	if err != nil {
		return false, err
	}
	return res.Embeddings > 0, nil
}

// ContainingGraphs returns the indices of the data graphs that contain
// q, in order — the subgraph containment search over a graph collection
// (the classic graph-database operation; see paper Section 2.2).
func ContainingGraphs(q *Graph, collection []*Graph, opts Options) ([]int, error) {
	var out []int
	for i, g := range collection {
		ok, err := Contains(q, g, opts)
		if err != nil {
			return nil, err
		}
		if ok {
			out = append(out, i)
		}
	}
	return out, nil
}

// ComputeCandidates runs one filtering method in isolation and returns
// the per-query-vertex candidate sets (sorted data vertices) — useful
// for inspecting pruning power or feeding external tooling, the way the
// study's Figure 8 compares filters.
func ComputeCandidates(q, g *Graph, m FilterMethod) ([][]Vertex, error) {
	return filter.Run(m, q, g)
}

// EstimateEmbeddings cheaply estimates the number of embeddings of q in
// g without enumerating: it runs GraphQL's filter, builds the candidate
// space, and counts the spanning-tree embeddings of the BFS order with
// the dynamic program behind CFL's and DP-iso's cost models. Because
// non-tree query edges are ignored, the estimate upper-bounds the true
// count; it is intended for query planning, not exact answers.
func EstimateEmbeddings(q, g *Graph) (float64, error) {
	cand, err := filter.Run(filter.GQL, q, g)
	if err != nil {
		return 0, err
	}
	if filter.AnyEmpty(cand) {
		return 0, nil
	}
	space := candspace.BuildFull(q, g, cand)
	delta := order.ComputeDPIso(q, g, 1)
	return candspace.EstimateSpanningTreeEmbeddings(space, delta), nil
}
