package enumerate

import (
	"subgraphmatching/internal/bitset"
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

type adaptiveState struct {
	bwdDelta    [][]graph.Vertex // backward neighbors w.r.t. delta
	fwdDelta    [][]graph.Vertex // forward neighbors w.r.t. delta
	parentsLeft []int            // unmapped DAG parents per query vertex
	pool        []graph.Vertex   // currently extendable vertices
	lcOf        [][]uint32       // local candidates, computed at activation
	weightOf    []float64        // selection weight, computed at activation
	pinned      []graph.Vertex   // per prefix position: the vertex pin selected
}

func (e *engine) initAdaptive() {
	n := e.q.NumVertices()
	a := &e.adaptive
	a.bwdDelta = make([][]graph.Vertex, n)
	a.fwdDelta = make([][]graph.Vertex, n)
	a.parentsLeft = make([]int, n)
	a.lcOf = make([][]uint32, n)
	a.weightOf = make([]float64, n)
	a.pinned = make([]graph.Vertex, n)
	for u := 0; u < n; u++ {
		uu := graph.Vertex(u)
		for _, un := range e.q.Neighbors(uu) {
			if e.pos[un] < e.pos[uu] {
				a.bwdDelta[u] = append(a.bwdDelta[u], un)
			} else {
				a.fwdDelta[u] = append(a.fwdDelta[u], un)
			}
		}
		a.parentsLeft[u] = len(a.bwdDelta[u])
	}
}

// activationWeight estimates the cost of extending u with the given
// local candidates.
func (e *engine) activationWeight(u graph.Vertex, lc []uint32) float64 {
	w := e.opts.AdaptiveWeights
	if w == nil || w[u] == nil {
		return float64(len(lc))
	}
	// lc and cand[u] are both sorted; a merge walk recovers candidate
	// indices without per-element binary searches.
	total := 0.0
	c := e.cand[u]
	ci := 0
	for _, v := range lc {
		for ci < len(c) && c[ci] < v {
			ci++
		}
		if ci < len(c) && c[ci] == v {
			total += w[u][ci]
			ci++
		}
	}
	return total
}

// activate marks u's DAG children as one-parent-closer to extendable,
// computing local candidates for those that become extendable and
// pushing them onto the pool.
func (e *engine) activate(u graph.Vertex) {
	a := &e.adaptive
	for _, w := range a.fwdDelta[u] {
		a.parentsLeft[w]--
		if a.parentsLeft[w] > 0 {
			continue
		}
		bwd := a.bwdDelta[w]
		var lc []uint32
		if len(bwd) == 1 {
			lc = append(a.lcOf[w][:0], e.space.Adjacency(bwd[0], w, e.candIdx[bwd[0]])...)
		} else {
			// Same selector dispatch as the static path (lcIntersect), so
			// the adaptive engine honors IntersectBlock and the kernel
			// policy instead of always intersecting plain slices.
			lc = e.intersectBackward(a.lcOf[w][:0], bwd, w)
		}
		a.lcOf[w] = lc
		a.weightOf[w] = e.activationWeight(w, lc)
		a.pool = append(a.pool, w)
	}
}

// deactivate undoes activate. The pool is unordered (selectExtendable
// swap-removes from arbitrary positions), so the vertices u activated —
// exactly its forward neighbors whose parentsLeft is currently zero —
// are removed by value rather than popped from the tail.
func (e *engine) deactivate(u graph.Vertex) {
	a := &e.adaptive
	for _, w := range a.fwdDelta[u] {
		if a.parentsLeft[w] == 0 {
			for i := len(a.pool) - 1; i >= 0; i-- {
				if a.pool[i] == w {
					a.pool[i] = a.pool[len(a.pool)-1]
					a.pool = a.pool[:len(a.pool)-1]
					break
				}
			}
		}
		a.parentsLeft[w]++
	}
}

// selectExtendable removes and returns the pool vertex with minimum
// weight (ties broken by delta position for determinism).
func (e *engine) selectExtendable() graph.Vertex {
	a := &e.adaptive
	best := 0
	for i := 1; i < len(a.pool); i++ {
		u, b := a.pool[i], a.pool[best]
		if a.weightOf[u] < a.weightOf[b] ||
			(a.weightOf[u] == a.weightOf[b] && e.pos[u] < e.pos[b]) {
			best = i
		}
	}
	u := a.pool[best]
	a.pool[best] = a.pool[len(a.pool)-1]
	a.pool = a.pool[:len(a.pool)-1]
	return u
}

// peekExtendable returns the local candidates of the vertex
// selectExtendable maps next, leaving the pool as it was (nil when
// nothing is extendable).
func (e *engine) peekExtendable() []uint32 {
	a := &e.adaptive
	if len(a.pool) == 0 {
		return nil
	}
	u := e.selectExtendable()
	a.pool = append(a.pool, u)
	return a.lcOf[u]
}

func (e *engine) runAdaptive() {
	root := e.phi[0]
	a := &e.adaptive
	a.pool = a.pool[:0]
	a.lcOf[root] = append(a.lcOf[root][:0], e.cand[root]...)
	a.weightOf[root] = e.activationWeight(root, a.lcOf[root])
	a.pool = append(a.pool, root)
	e.adaptiveRec(0)
}

// adaptiveRec is the adaptive-order recursion; failing-set masks are
// maintained throughout and acted upon only when the optimization is
// enabled.
func (e *engine) adaptiveRec(depth int) bitset.Mask64 {
	if !e.enterNode() {
		return e.fullMask
	}
	if depth == e.q.NumVertices() {
		if e.prof != nil {
			e.prof.Nodes[depth]++
		}
		e.emitPinned()
		return e.fullMask
	}
	a := &e.adaptive
	u := e.selectExtendable()
	lc := a.lcOf[u]
	if e.prof != nil {
		e.prof.Nodes[depth]++
		e.prof.Candidates[depth] += uint64(len(lc))
		if len(lc) == 0 {
			e.prof.EmptyLC[depth]++
		}
	}
	if len(lc) == 0 {
		a.pool = append(a.pool, u)
		return nodeMask(0, u, a.bwdDelta[u])
	}
	if depth == e.q.NumVertices()-1 {
		// The last vertex has no DAG children left to activate.
		accum := e.leafLevel(depth, u, lc)
		a.pool = append(a.pool, u)
		return nodeMask(accum, u, a.bwdDelta[u])
	}
	var accum bitset.Mask64
	for _, v := range lc {
		var child bitset.Mask64
		if e.visited[v] {
			child = bitset.Mask64(0).With(uint32(u)).With(uint32(e.ownerOf(v)))
			if e.prof != nil {
				e.prof.Conflicts[depth]++
			}
		} else if p := e.symViolator(u, v); e.symPeers != nil && p != graph.NoVertex {
			child = bitset.Mask64(0).With(uint32(u)).With(uint32(p))
			if e.prof != nil {
				e.prof.SymmetrySkips[depth]++
			}
		} else {
			var kpre intersect.KernelStats
			if e.prof != nil {
				e.prof.Extended[depth]++
				kpre = e.sel.Stats()
			}
			e.assign(u, v)
			e.activate(u)
			if e.prof != nil {
				// Kernel executions during activation computed the local
				// candidates of the vertices extendable at depth+1 and
				// beyond; attributing them to the activating depth keeps
				// the per-depth sums equal to Stats.Kernels.
				e.prof.addKernelDelta(depth, kpre, e.sel.Stats())
			}
			child = e.adaptiveRec(depth + 1)
			e.deactivate(u)
			e.unassign(u, v)
			if e.aborted {
				a.pool = append(a.pool, u)
				return e.fullMask
			}
		}
		if e.opts.FailingSets && child != e.fullMask && !child.Has(uint32(u)) {
			a.pool = append(a.pool, u)
			if e.prof != nil {
				e.prof.FailingSetSkips[depth]++
			}
			if accum == e.fullMask {
				return e.fullMask
			}
			return child
		}
		accum = accum.Union(child)
	}
	a.pool = append(a.pool, u)
	// As in the static engine, the candidate set iterated above depends
	// on the DAG parents' mappings, so they belong to the failing set.
	return nodeMask(accum, u, a.bwdDelta[u])
}
