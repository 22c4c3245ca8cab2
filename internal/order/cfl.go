package order

import (
	"subgraphmatching/internal/bitset"
	"subgraphmatching/internal/filter"
	"subgraphmatching/internal/graph"
)

// ComputeCFL implements CFL's path-based ordering (Section 3.2): the BFS
// tree q_t rooted at CFL's root is decomposed into root-to-leaf paths;
// a dynamic program over the candidate sets estimates c(P), the number of
// candidate paths isomorphic to each P. The first path minimizes
// c(P)/(|NT(P)|+1) where NT(P) are the non-tree edges adjacent to P;
// subsequent paths minimize c(P^u)/|C(u)| where u is the path's
// connection vertex to the current order.
func ComputeCFL(q, g *graph.Graph, cand [][]uint32) []graph.Vertex {
	n := q.NumVertices()
	if n == 1 {
		return []graph.Vertex{0}
	}
	root := filter.Root(filter.CFL, q, g)
	t := graph.NewBFSTree(q, root)
	children := t.Children()

	// Enumerate root-to-leaf paths.
	var paths [][]graph.Vertex
	var walk func(prefix []graph.Vertex, u graph.Vertex)
	walk = func(prefix []graph.Vertex, u graph.Vertex) {
		prefix = append(prefix, u)
		if len(children[u]) == 0 {
			paths = append(paths, append([]graph.Vertex(nil), prefix...))
			return
		}
		for _, c := range children[u] {
			walk(prefix, c)
		}
	}
	walk(nil, root)

	est := newPathEstimator(g, cand)
	// suffixCount[i][j] = estimated candidate paths isomorphic to
	// paths[i][j:] (the suffix of path i starting at position j).
	suffixCount := make([][]float64, len(paths))
	for i, p := range paths {
		suffixCount[i] = est.suffixCounts(p)
	}

	// Non-tree edges adjacent to each path.
	nt := make([]int, len(paths))
	for i, p := range paths {
		onPath := map[graph.Vertex]bool{}
		for _, u := range p {
			onPath[u] = true
		}
		q.EachEdge(func(a, b graph.Vertex) bool {
			if !t.IsTreeEdge(a, b) && (onPath[a] || onPath[b]) {
				nt[i]++
			}
			return true
		})
	}

	in := make([]bool, n)
	phi := make([]graph.Vertex, 0, n)
	used := make([]bool, len(paths))

	// First path: min c(P) / (|NT(P)|+1).
	best := 0
	for i := 1; i < len(paths); i++ {
		if suffixCount[i][0]/float64(nt[i]+1) < suffixCount[best][0]/float64(nt[best]+1) {
			best = i
		}
	}
	for _, u := range paths[best] {
		phi = append(phi, u)
		in[u] = true
	}
	used[best] = true

	for len(phi) < n {
		bestI, bestScore := -1, 0.0
		for i, p := range paths {
			if used[i] {
				continue
			}
			// Connection vertex: deepest path vertex already in phi.
			conn := 0
			for j, u := range p {
				if in[u] {
					conn = j
				}
			}
			denom := float64(len(cand[p[conn]]))
			if denom == 0 {
				denom = 1
			}
			score := suffixCount[i][conn] / denom
			if bestI < 0 || score < bestScore {
				bestI, bestScore = i, score
			}
		}
		if bestI < 0 {
			break
		}
		for _, u := range paths[bestI] {
			if !in[u] {
				phi = append(phi, u)
				in[u] = true
			}
		}
		used[bestI] = true
	}
	return phi
}

// pathEstimator runs the bottom-up DP that counts candidate paths
// isomorphic to a query path: W_k(v) = 1 for the last path vertex, and
// W_i(v) = sum over v' in N(v) ∩ C(P[i+1]) of W_{i+1}(v').
type pathEstimator struct {
	g      *graph.Graph
	cand   [][]uint32
	member []*bitset.Set      // candidate membership per query vertex
	weight map[uint32]float64 // scratch: weights at level i+1
	next   map[uint32]float64 // scratch: weights being built at level i
}

func newPathEstimator(g *graph.Graph, cand [][]uint32) *pathEstimator {
	e := &pathEstimator{
		g:      g,
		cand:   cand,
		member: make([]*bitset.Set, len(cand)),
		weight: map[uint32]float64{},
		next:   map[uint32]float64{},
	}
	for u, c := range cand {
		e.member[u] = bitset.New(g.NumVertices())
		for _, v := range c {
			e.member[u].Set(v)
		}
	}
	return e
}

// suffixCounts returns, for each position j on the path, the estimated
// number of candidate paths isomorphic to path[j:].
func (e *pathEstimator) suffixCounts(path []graph.Vertex) []float64 {
	k := len(path)
	out := make([]float64, k)
	clear(e.weight)
	last := path[k-1]
	for _, v := range e.cand[last] {
		e.weight[v] = 1
	}
	out[k-1] = float64(len(e.cand[last]))
	for i := k - 2; i >= 0; i-- {
		clear(e.next)
		memberNext := e.member[path[i+1]]
		total := 0.0
		for _, v := range e.cand[path[i]] {
			w := 0.0
			for _, vn := range e.g.Neighbors(v) {
				if memberNext.Contains(vn) {
					w += e.weight[vn]
				}
			}
			if w > 0 {
				e.next[v] = w
				total += w
			}
		}
		e.weight, e.next = e.next, e.weight
		out[i] = total
	}
	return out
}
