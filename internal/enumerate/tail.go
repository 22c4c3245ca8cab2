package enumerate

import (
	"math"
	"math/bits"
	"slices"

	"subgraphmatching/internal/bitset"
	"subgraphmatching/internal/graph"
	"subgraphmatching/internal/intersect"
)

// The counted tail (Options.CountTail). The paper's CFL discussion
// postpones Cartesian products: once every backward neighbour of the
// trailing order positions is mapped, their local candidates no longer
// depend on one another, and the completions of the partial embedding
// are a count, not a search. prepareTail picks the longest suffix of
// phi, at least two positions long, whose query vertices are pairwise
// non-adjacent — so every one of them has all its backward neighbours
// mapped at the suffix's first depth — and in which no label has three
// vertices. A run with no sink then ends the search at that depth: one
// node computes each suffix vertex's LC once and adds the number of
// injective completions, up to what the embedding cap has left.
//
// Data vertices of different labels are distinct, so that number is a
// product over the suffix's label classes: a class of one contributes
// |LC − mapped|, a class of two {a, b} contributes |A|·|B| − |A∩B| over
// the unmapped candidates, or, when a symmetry class orders the pair,
// the pairs in that order. Three vertices of one label would need
// inclusion–exclusion over their LCs, so such a suffix is cut below the
// third; under homomorphism nothing is injective and every position is
// a class of its own. Adaptive orders choose the next vertex per node
// and VF2++'s cutoff reads every mapped vertex, so neither has a tail.

// tailClass is one label class of the counted tail: the position a and,
// for a class of two, the position b (−1 for a class of one). order
// says how a symmetry class orders a pair: +1 maps a below b, −1 above,
// 0 leaves them unordered.
type tailClass struct {
	a, b  int
	order int8
}

// prepareTail sets e.tail, the first depth of the counted tail (past
// the emit depth when the plan has none), and its label classes. It
// runs after the symmetry classes are set up.
func (e *engine) prepareTail() {
	n := len(e.phi)
	e.tail = n + 1
	if !e.opts.CountTail || e.opts.Adaptive || e.opts.VF2PPRules {
		return
	}
	hom := e.opts.Homomorphism
	start := n
	for d := n - 1; d >= 1; d-- {
		u, same := e.phi[d], 0
		for _, w := range e.phi[d+1:] {
			if e.q.HasEdge(u, w) {
				same = 2
				break
			}
			if !hom && e.q.Label(w) == e.q.Label(u) {
				same++
			}
		}
		if same >= 2 {
			break
		}
		start = d
	}
	if n-start < 2 {
		return
	}
	e.tail = start
	for d := start; d < n; d++ {
		u, joined := e.phi[d], false
		for i := range e.tailClasses {
			c := &e.tailClasses[i]
			if hom || c.b >= 0 || e.q.Label(e.phi[c.a]) != e.q.Label(u) {
				continue
			}
			c.b, joined = d, true
			if ua := e.phi[c.a]; e.symPeers != nil && slices.Contains(e.symPeers[ua], u) {
				c.order = 1
				if e.symPos[ua] > e.symPos[u] {
					c.order = -1
				}
			}
			break
		}
		if !joined {
			e.tailClasses = append(e.tailClasses, tailClass{a: d, b: -1})
		}
	}
}

// countTail is the node at the tail's first depth on a run with no
// sink: it counts the completions of the partial embedding instead of
// searching for them. It is one search node; the positions below it are
// none. The count goes to Stats.Embeddings (and the profile's
// Counted[depth]) capped by what MaxEmbeddings has left, and the node
// returns fullMask — unless it counted nothing. Then, under failing
// sets, it returns the failing set of the label class that counted 0:
// the class's vertices and their backward neighbours, whose mappings
// fixed the LCs, and the owners and symmetry peers that ruled
// candidates out. Remapping any other vertex can only rule out more
// candidates, so the count stays 0 — the mask is sound.
func (e *engine) countTail(depth int) bitset.Mask64 {
	var kpre intersect.KernelStats
	if e.prof != nil {
		kpre = e.sel.Stats()
	}
	total, cands := uint64(1), 0
	var mask bitset.Mask64
	for _, c := range e.tailClasses {
		ua := e.phi[c.a]
		la := e.computeLC(c.a, ua)
		cands += len(la)
		var k uint64
		var ub graph.Vertex
		var lb []uint32
		if c.b < 0 {
			k = e.countFree(ua, la)
		} else {
			ub = e.phi[c.b]
			lb = e.computeLC(c.b, ub)
			cands += len(lb)
			k = e.countPairs(ua, la, ub, lb, c.order)
		}
		if k == 0 {
			total = 0
			if e.opts.FailingSets {
				mask = e.ruledOut(mask, c.a, ua, la)
				if c.b >= 0 {
					mask = e.ruledOut(mask, c.b, ub, lb)
				}
			}
			break
		}
		// A product past 2⁶⁴ saturates; no search reaches such a count.
		if hi, lo := bits.Mul64(total, k); hi != 0 {
			total = math.MaxUint64
		} else {
			total = lo
		}
	}
	taken := total
	if limit := e.opts.MaxEmbeddings; limit > 0 && limit-e.stats.Embeddings <= taken {
		taken = limit - e.stats.Embeddings
		e.stats.LimitHit = true
		e.aborted = true
	}
	e.stats.Embeddings += taken
	if e.prof != nil {
		e.prof.addKernelDelta(depth, kpre, e.sel.Stats())
		e.prof.Nodes[depth]++
		e.prof.Candidates[depth] += uint64(cands)
		e.prof.Counted[depth] += taken
		if total == 0 {
			e.prof.EmptyLC[depth]++
		}
	}
	if total == 0 {
		return mask
	}
	return e.fullMask
}

// free reports whether data vertex v may complete u: not mapped, and
// in order with u's mapped symmetry peers. The tail's own vertices are
// unmapped, so only peers above the tail are checked here. Under
// homomorphism every candidate is free, and no caller asks.
func (e *engine) free(u graph.Vertex, v uint32) bool {
	return !e.visited[v] && (e.symPeers == nil || e.symViolator(u, v) == graph.NoVertex)
}

// countFree is |LC(u) − ruled out|.
func (e *engine) countFree(u graph.Vertex, lc []uint32) uint64 {
	if e.opts.Homomorphism {
		return uint64(len(lc))
	}
	ids, k := e.ids[u], uint64(0)
	for _, x := range lc {
		v := x
		if ids != nil {
			v = ids[x]
		}
		if e.free(u, v) {
			k++
		}
	}
	return k
}

// countPairs counts the injective pairs (x, y) of free candidates of a
// (in la) and b (in lb): x < y when order is +1, x > y when −1, x ≠ y
// when 0. Both lists are ascending in data vertex, so one merge gives
// lt = Σ_y |{x < y}| and gt = Σ_x |{y < x}|, and |A|·|B| − |A∩B| is
// their sum.
func (e *engine) countPairs(a graph.Vertex, la []uint32, b graph.Vertex, lb []uint32, order int8) uint64 {
	ia, ib := e.ids[a], e.ids[b]
	next := func(u graph.Vertex, lc, ids []uint32, i int) (int, uint32) {
		for ; i < len(lc); i++ {
			v := lc[i]
			if ids != nil {
				v = ids[v]
			}
			if e.free(u, v) {
				return i, v
			}
		}
		return i, 0
	}
	var na, nb, lt, gt uint64
	i, x := next(a, la, ia, 0)
	j, y := next(b, lb, ib, 0)
	for i < len(la) || j < len(lb) {
		switch {
		case j == len(lb) || (i < len(la) && x < y):
			gt += nb
			na++
			i, x = next(a, la, ia, i+1)
		case i == len(la) || y < x:
			lt += na
			nb++
			j, y = next(b, lb, ib, j+1)
		default: // x == y: neither pair (x, y) nor (y, x) is injective
			gt += nb
			lt += na
			na++
			nb++
			i, x = next(a, la, ia, i+1)
			j, y = next(b, lb, ib, j+1)
		}
	}
	switch order {
	case 1:
		return lt
	case -1:
		return gt
	}
	return lt + gt
}

// ruledOut adds to m the vertex u at position pos, its backward
// neighbours, and for each candidate of lc that is not free the owner
// of its data vertex or the symmetry peer that orders it out.
func (e *engine) ruledOut(m bitset.Mask64, pos int, u graph.Vertex, lc []uint32) bitset.Mask64 {
	m = nodeMask(m, u, e.bwd[pos])
	if e.opts.Homomorphism {
		return m
	}
	ids := e.ids[u]
	for _, x := range lc {
		v := x
		if ids != nil {
			v = ids[x]
		}
		if e.visited[v] {
			m = m.With(uint32(e.ownerOf(v)))
		} else if p := e.symViolator(u, v); p != graph.NoVertex {
			m = m.With(uint32(p))
		}
	}
	return m
}
