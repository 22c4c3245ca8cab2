package enumerate

import (
	"subgraphmatching/internal/graph"
	"subgraphmatching/internal/intersect"
)

// DP-iso's adaptive matching order (Section 3.2): the BFS order delta
// defines a DAG over the query (edges point from earlier to later delta
// positions). A vertex is extendable once all its DAG parents are
// mapped; its local candidates are computed at that moment (they depend
// only on the parents' mappings, so they stay valid while the vertex
// waits in the pool). At each search node the engine maps the extendable
// vertex with the smallest estimated cost — the path-count weight sum
// when AdaptiveWeights is provided, otherwise the local candidate count.
//
// The pool is a stack of frames, one per depth on the current path:
// frame d holds the unmapped extendable vertices of the node at depth d.
// Frame 0 is the root; frame d is frame d−1 less at[d−1], the vertex its
// node mapped, plus what at[d−1]'s current mapping makes extendable. A
// node builds its frame on entry, over whatever a sibling's subtree left
// above frame d−1, so nothing is undone on the way back up, and the
// choice is a function of the mapping alone: a donor and the task it
// donated select alike.

type adaptiveState struct {
	fwd      [][]int        // per query vertex: the delta positions of its DAG children
	pool     []graph.Vertex // the frames, depth 0 first
	top      []int          // frame d is pool[top[d]:top[d+1]]
	lcOf     [][]uint32     // local candidates (positions in C(u)), computed at activation
	weightOf []float64      // selection weight, computed at activation
	at       []graph.Vertex // per depth on the current path: the vertex pinned or selected there
}

func (e *engine) initAdaptive() {
	n := e.q.NumVertices()
	a := &e.adaptive
	a.fwd = make([][]int, n)
	a.pool = make([]graph.Vertex, 0, n*(n+1)/2) // frame d holds at most n−d vertices
	a.top = make([]int, n+1)
	a.lcOf = make([][]uint32, n)
	a.weightOf = make([]float64, n)
	a.at = make([]graph.Vertex, n)
	for u := 0; u < n; u++ {
		for _, un := range e.q.Neighbors(graph.Vertex(u)) {
			if e.pos[un] > e.pos[u] {
				a.fwd[u] = append(a.fwd[u], e.pos[un])
			}
		}
	}
	if n > 0 {
		root := e.phi[0]
		a.lcOf[root] = e.rootLC
		a.weightOf[root] = e.activationWeight(root, e.rootLC)
	}
}

// activationWeight estimates the cost of extending u with the given
// local candidates (positions in C(u)).
func (e *engine) activationWeight(u graph.Vertex, lc []uint32) float64 {
	w := e.opts.AdaptiveWeights
	if w == nil || w[u] == nil {
		return float64(len(lc))
	}
	// lc holds positions in C(u), which is how the weights are indexed.
	total := 0.0
	for _, i := range lc {
		total += w[u][i]
	}
	return total
}

// activate pushes onto the pool each DAG child of the just-mapped u
// whose parents are now all mapped, with its local candidates and
// weight: the vertices u's mapping made extendable.
func (e *engine) activate(u graph.Vertex) {
	a := &e.adaptive
next:
	for _, d := range a.fwd[u] {
		// delta is phi, so the DAG parents of w = phi[d] are bwd[d], and
		// their pairs are the static path's.
		w, bwd, pairs := e.phi[d], e.bwd[d], e.bwdPairs[d]
		for _, p := range bwd {
			if !e.mapped[p] {
				continue next
			}
		}
		var lc []uint32
		if len(bwd) == 1 {
			lc = pairs[0].Adjacency(e.candIdx[bwd[0]])
		} else {
			// Same selector dispatch as the static path (lcIntersect), so
			// the adaptive engine honors the kernel policy, the block
			// policy's views included.
			lc = e.intersectBackward(a.lcOf[w][:0], bwd, pairs)
		}
		a.lcOf[w] = lc
		a.weightOf[w] = e.activationWeight(w, lc)
		a.pool = append(a.pool, w)
	}
}

// extendable is DP-iso's NextVertex at depth: it builds the depth's
// frame under the current mapping — the root alone at depth 0, else
// frame depth−1 less at[depth−1] plus what mapping at[depth−1] made
// extendable, whose kernels are charged to depth−1 — and returns the
// frame's vertex with the least weight, ties broken by delta position,
// recording it as at[depth]. A frame is never empty: the order is
// connected, so an unmapped vertex's earliest unmapped DAG ancestor has
// every parent mapped.
func (e *engine) extendable(depth int) graph.Vertex {
	a := &e.adaptive
	if depth == 0 {
		a.pool = append(a.pool[:0], e.phi[0])
	} else {
		lo, hi, u := a.top[depth-1], a.top[depth], a.at[depth-1]
		a.pool = a.pool[:hi]
		for _, w := range a.pool[lo:hi] {
			if w != u {
				a.pool = append(a.pool, w)
			}
		}
		var kpre intersect.KernelStats
		if e.prof != nil {
			kpre = e.sel.Stats()
		}
		e.activate(u)
		if e.prof != nil {
			e.prof.addKernelDelta(depth-1, kpre, e.sel.Stats())
		}
	}
	a.top[depth+1] = len(a.pool)
	frame := a.pool[a.top[depth]:]
	best := frame[0]
	for _, w := range frame[1:] {
		if a.weightOf[w] < a.weightOf[best] ||
			(a.weightOf[w] == a.weightOf[best] && e.pos[w] < e.pos[best]) {
			best = w
		}
	}
	a.at[depth] = best
	return best
}
