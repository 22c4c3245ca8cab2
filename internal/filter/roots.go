package filter

import (
	"subgraphmatching/internal/graph"
	"subgraphmatching/internal/par"
)

// Root selection rules of the tree-based filters. Each is exported
// because the corresponding ordering methods (package order) must use the
// same deterministic root.
//
// The dominant cost of every rule is sizing NLF/LDF candidate sets — one
// label-frequency scan of the data graph per query vertex — so each rule
// has a Workers form that fans the sizing out over internal/par and
// reduces with a sequential argmin. The result is identical for every
// worker count: the scores are written per task index and the tie-break
// (lowest vertex id wins) lives entirely in the reduction.

// CFLRoot picks CFL's start vertex: among the (up to) three core vertices
// with minimum label-frequency/degree ratio, the one with the smallest
// NLF candidate set. Queries without a 2-core fall back to all vertices.
func CFLRoot(q, g *graph.Graph) graph.Vertex {
	return CFLRootWorkers(q, g, 1)
}

// CFLRootWorkers is CFLRoot with the NLF candidate-set sizing of the top
// ranked vertices fanned out over `workers` goroutines.
func CFLRootWorkers(q, g *graph.Graph, workers int) graph.Vertex {
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
	s := newState(q, g)
	sizes := make([]int, len(top))
	par.Run(workers, len(top), func(_, t int) uint64 {
		sizes[t] = len(s.nlfCandidates(top[t]))
		return uint64(sizes[t]) + 1
	})
	best := top[0]
	bestSize := -1
	for i, u := range top {
		if bestSize < 0 || sizes[i] < bestSize {
			best, bestSize = u, sizes[i]
		}
	}
	return best
}

// CECIRoot picks CECI's start vertex: argmin |C_NLF(u)| / d(u).
func CECIRoot(q, g *graph.Graph) graph.Vertex {
	return CECIRootWorkers(q, g, 1)
}

// CECIRootWorkers is CECIRoot with the per-vertex NLF sizing fanned out
// over `workers` goroutines.
func CECIRootWorkers(q, g *graph.Graph, workers int) graph.Vertex {
	s := newState(q, g)
	n := q.NumVertices()
	scores := make([]float64, n)
	par.Run(workers, n, func(_, t int) uint64 {
		uu := graph.Vertex(t)
		size := len(s.nlfCandidates(uu))
		scores[t] = float64(size) / float64(q.Degree(uu))
		return uint64(size) + 1
	})
	return argminRoot(scores)
}

// DPIsoRoot picks DP-iso's start vertex: argmin |C_LDF(u)| / d(u).
func DPIsoRoot(q, g *graph.Graph) graph.Vertex {
	return DPIsoRootWorkers(q, g, 1)
}

// DPIsoRootWorkers is DPIsoRoot with the per-vertex LDF sizing fanned
// out over `workers` goroutines.
func DPIsoRootWorkers(q, g *graph.Graph, workers int) graph.Vertex {
	s := newState(q, g)
	n := q.NumVertices()
	scores := make([]float64, n)
	par.Run(workers, n, func(_, t int) uint64 {
		uu := graph.Vertex(t)
		size := len(s.ldfCandidates(uu))
		scores[t] = float64(size) / float64(q.Degree(uu))
		return uint64(size) + 1
	})
	return argminRoot(scores)
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
