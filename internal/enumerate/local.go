package enumerate

import (
	"subgraphmatching/internal/candspace"
	"subgraphmatching/internal/graph"
)

// computeLC computes the local candidate set LC(u, M) for the query
// vertex u at the given search depth, dispatching on the configured
// method: positions in C(u), except under Direct, which yields data
// vertices (e.ids says which). The result lives in a per-depth buffer
// and is valid until the next computeLC call at the same depth.
func (e *engine) computeLC(depth int, u graph.Vertex) []uint32 {
	switch e.opts.Local {
	case Direct:
		return e.lcDirect(depth, u)
	case Scan:
		return e.lcScan(depth, u)
	case TreeEdge:
		return e.lcTreeEdge(depth, u)
	default: // Intersect — kernel choice is the selector's.
		return e.lcIntersect(depth, u)
	}
}

// lcDirect is Algorithm 2 (QuickSI/RI), optionally extended with VF2++'s
// label-count cutoff rules.
func (e *engine) lcDirect(depth int, u graph.Vertex) []uint32 {
	if depth == 0 {
		return e.cand[u]
	}
	p := e.parent[depth]
	out := e.lcBuf[depth][:0]
	for _, v := range e.g.Neighbors(e.embedding[p]) {
		if e.g.Label(v) != e.q.Label(u) {
			continue
		}
		// The degree condition assumes injectivity; homomorphisms may
		// collapse neighbors.
		if !e.opts.Homomorphism && e.g.Degree(v) < e.q.Degree(u) {
			continue
		}
		if !e.backwardEdgesOK(depth, v, p) {
			continue
		}
		if e.opts.VF2PPRules && !e.vf2ppOK(depth, v) {
			continue
		}
		out = append(out, v)
	}
	e.lcBuf[depth] = out
	return out
}

// lcScan is Algorithm 3 (GraphQL): iterate the whole candidate set.
func (e *engine) lcScan(depth int, u graph.Vertex) []uint32 {
	if depth == 0 {
		return e.rootLC
	}
	out := e.lcBuf[depth][:0]
	for i, v := range e.cand[u] {
		if e.backwardEdgesOK(depth, v, graph.NoVertex) {
			out = append(out, uint32(i))
		}
	}
	e.lcBuf[depth] = out
	return out
}

// lcTreeEdge is Algorithm 4 (CFL): candidates adjacent to the parent's
// mapping come from the tree-edge auxiliary structure; other backward
// edges are verified with binary searches.
func (e *engine) lcTreeEdge(depth int, u graph.Vertex) []uint32 {
	if depth == 0 {
		return e.rootLC
	}
	p := e.parent[depth]
	fromTree := e.parentPairs[depth].Adjacency(e.candIdx[p])
	if len(e.bwd[depth]) == 1 {
		return fromTree
	}
	out := e.lcBuf[depth][:0]
	c := e.cand[u]
	for _, x := range fromTree {
		if e.backwardEdgesOK(depth, c[x], p) {
			out = append(out, x)
		}
	}
	e.lcBuf[depth] = out
	return out
}

// lcIntersect is Algorithm 5 (CECI/DP-iso): intersect the auxiliary
// adjacency lists of all backward neighbors, with the pairwise kernel
// (merge/gallop, or the word-parallel block kernel under PolicyBlock)
// chosen per call by the engine's selector under Options.Kernel.
func (e *engine) lcIntersect(depth int, u graph.Vertex) []uint32 {
	if depth == 0 {
		return e.rootLC
	}
	bwd := e.bwd[depth]
	if len(bwd) == 1 {
		return e.bwdPairs[depth][0].Adjacency(e.candIdx[bwd[0]])
	}
	e.lcBuf[depth] = e.intersectBackward(e.lcBuf[depth][:0], bwd, e.bwdPairs[depth])
	return e.lcBuf[depth]
}

// intersectBackward gathers the auxiliary adjacency lists pairs[i]
// holds for the mapping of bwd[i] — with their block views when the
// block policy runs over a space that has them — and intersects them
// through the kernel selector, appending to dst. The lists are
// positions in the same C(u), so their intersection is u's local
// candidates. Shared by the static-order path and the adaptive (DP-iso)
// activation.
func (e *engine) intersectBackward(dst []uint32, bwd []graph.Vertex, pairs []candspace.Pair) []uint32 {
	sets := e.setsBuf[:0]
	if e.useViews {
		views := e.viewsBuf[:0]
		for i, un := range bwd {
			ci := e.candIdx[un]
			sets = append(sets, pairs[i].Adjacency(ci))
			views = append(views, pairs[i].View(ci))
		}
		e.setsBuf, e.viewsBuf = sets, views
		return e.sel.Many(dst, sets, views)
	}
	for i, un := range bwd {
		sets = append(sets, pairs[i].Adjacency(e.candIdx[un]))
	}
	e.setsBuf = sets
	return e.sel.Many(dst, sets, nil)
}

// backwardEdgesOK verifies e(v, M[u']) for every backward neighbor u' of
// the vertex at this depth, excluding skip (the neighbor already handled
// by the caller, e.g. the tree parent).
func (e *engine) backwardEdgesOK(depth int, v uint32, skip graph.Vertex) bool {
	for _, un := range e.bwd[depth] {
		if un == skip {
			continue
		}
		if !e.g.HasEdge(e.embedding[un], v) {
			return false
		}
	}
	return true
}

// vf2ppOK applies VF2++'s cutoff: for every label l among the forward
// neighbors of the current query vertex, v must have at least that many
// unmapped neighbors labeled l.
//
// It counts only the labels of the needs: an unmapped neighbor whose
// label is one of them adds to that need's tally, and the check passes
// as soon as every tally has reached its count.
func (e *engine) vf2ppOK(depth int, v uint32) bool {
	req := e.fwdReq[depth]
	if len(req) == 0 {
		return true
	}
	have := e.needHave[:len(req)]
	clear(have)
	short := len(req) // needs not met yet
	for _, w := range e.g.Neighbors(v) {
		if e.visited[w] {
			continue
		}
		l := e.g.Label(w)
		for i := range req {
			if req[i].label == l {
				if have[i]++; have[i] == req[i].count {
					if short--; short == 0 {
						return true
					}
				}
				break
			}
		}
	}
	return false
}
