package order

import (
	"subgraphmatching/internal/candspace"
	"subgraphmatching/internal/graph"
	"subgraphmatching/internal/par"
)

// EstimateCost estimates the search-tree size induced by a matching
// order over a candidate space: the expected number of partial
// embeddings at each prefix length, summed. It generalizes the path
// cardinality estimation behind CFL's and DP-iso's cost models from
// paths to arbitrary orders.
//
// The model walks the order and maintains est(i), the estimated number
// of partial embeddings of phi[0..i]. Extending by u = phi[i] multiplies
// by the average number of candidates of u adjacent to a candidate of
// its first backward neighbor, and scales down by the selectivity of
// every additional backward edge (estimated as the fraction of candidate
// pairs connected in the auxiliary structure). Lower is better. The
// estimate ignores injectivity, so it upper-bounds weakly — but ordering
// decisions only need relative accuracy.
func EstimateCost(q *graph.Graph, space *candspace.Space, phi []graph.Vertex) float64 {
	n := q.NumVertices()
	if n == 0 || len(phi) != n {
		return 0
	}
	pos := make([]int, n)
	for i, u := range phi {
		pos[u] = i
	}
	total := float64(len(space.Candidates(phi[0])))
	est := total
	for i := 1; i < n; i++ {
		u := phi[i]
		first := true
		for _, un := range q.Neighbors(u) {
			if pos[un] >= i {
				continue
			}
			sel := edgeSelectivity(space, un, u)
			if first {
				// Average fanout from C(un) into C(u).
				est *= sel * float64(len(space.Candidates(u)))
				first = false
			} else {
				// Additional backward edges filter the partial
				// embeddings.
				est *= sel
			}
		}
		if first {
			// No backward neighbor (adaptive DAG roots): full cross
			// product.
			est *= float64(len(space.Candidates(u)))
		}
		total += est
		if est == 0 {
			break
		}
	}
	return total
}

// edgeSelectivity estimates, for the directed candidate pair (a, b), the
// probability that a random candidate of b is adjacent to a random
// candidate of a: |edges(C(a), C(b))| / (|C(a)| * |C(b)|).
func edgeSelectivity(space *candspace.Space, a, b graph.Vertex) float64 {
	ca, cb := space.Candidates(a), space.Candidates(b)
	if len(ca) == 0 || len(cb) == 0 {
		return 0
	}
	// PairSize reads the total edge count off the CSR in O(1); summing
	// per-candidate Adjacency lengths here was O(|C(a)|) per cost-model
	// probe.
	edges := space.PairSize(a, b)
	return float64(edges) / (float64(len(ca)) * float64(len(cb)))
}

// Best evaluates every ordering method under the cost model and returns
// the method with the lowest estimated cost together with its order — a
// light-weight automatic order chooser built on the study's finding that
// no single ordering method dominates (Section 6).
//
// The per-method order computation and cost probes fan out over
// `workers` goroutines (≤ 1 = inline). Each method's (order, cost) pair
// depends only on the method, so the fan-out is trivially deterministic;
// the reduction scans methods in their canonical sequence and keeps the
// first minimum (the first error in method order wins too).
func Best(q, g *graph.Graph, cand [][]uint32, space *candspace.Space, workers int) (Method, []graph.Vertex, error) {
	ms := Methods()
	phis := make([][]graph.Vertex, len(ms))
	costs := make([]float64, len(ms))
	errs := make([]error, len(ms))
	par.Run(workers, len(ms), func(_, t int) uint64 {
		phi, err := Compute(ms[t], q, g, cand)
		if err != nil {
			errs[t] = err
			return 1
		}
		phis[t] = phi
		costs[t] = EstimateCost(q, space, phi)
		return uint64(len(phi)) + 1
	})
	bestM := GQL
	var bestPhi []graph.Vertex
	bestCost := -1.0
	for i, m := range ms {
		if errs[i] != nil {
			return 0, nil, errs[i]
		}
		if bestCost < 0 || costs[i] < bestCost {
			bestM, bestPhi, bestCost = m, phis[i], costs[i]
		}
	}
	return bestM, bestPhi, nil
}
