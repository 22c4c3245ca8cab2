package filter

import (
	"slices"

	"subgraphmatching/internal/bipartite"
	"subgraphmatching/internal/bitset"
	"subgraphmatching/internal/graph"
)

// One execution path. Every filtering method is a sequence of
// operations on the candidate state — scan a label pool into C(u),
// generate C(u) from C(parent) (Generation Rule 3.1), prune C(u)
// against neighboring sets (Filtering Rule 3.1), or refine C(u) with
// GraphQL's semi-perfect matching test — and the method files (cfl.go,
// ceci.go, dpiso.go, graphql.go, filter.go) only spell out their
// sequence. This file executes a sequence, strictly one operation after
// another on the caller's goroutine: each operation sees every write of
// the operations before it. GraphQL's refinement is therefore
// Gauss–Seidel at query-vertex granularity — refine C(u) for u in
// order, each seeing the removals of the vertices before it.

type opKind uint8

const (
	// opScan overwrites C(u) with the vertices of u's label pool that
	// pass the degree check and, when nlf is set, the NLF check (the
	// radius-r profile check on a state with radius > 1).
	opScan opKind = iota
	// opGen overwrites C(u) by Generation Rule 3.1 from C(src[0]).
	opGen
	// opPrune keeps the v ∈ C(u) with a neighbor in C(u′) for every
	// u′ ∈ src (Filtering Rule 3.1) that also pass NLF when nlf is set.
	opPrune
	// opMatch keeps the v ∈ C(u) whose neighborhood has a semi-perfect
	// matching against src = N(u) (GraphQL, Observation 3.2).
	opMatch
)

// op is one step of a method's operation sequence.
type op struct {
	kind opKind
	u    graph.Vertex
	src  []graph.Vertex
	nlf  bool
	// classes is src cut into label classes (opMatch only; labelClasses):
	// a property of the query, so it is computed once per refined vertex
	// and shared by every candidate's check in every round.
	classes [][]graph.Vertex
}

// scanAll is the opening of most methods: one label-pool scan per query
// vertex.
func scanAll(q *graph.Graph, nlf bool) []op {
	ops := make([]op, q.NumVertices())
	for u := range ops {
		ops[u] = op{kind: opScan, u: graph.Vertex(u), nlf: nlf}
	}
	return ops
}

// run executes the operation sequence in order and reports whether a
// prune or refinement removed any candidate.
func (s *state) run(ops []op) bool {
	removed := false
	for _, o := range ops {
		switch o.kind {
		case opScan:
			s.setCandidates(o.u, s.scan(o))
		case opGen:
			s.setCandidates(o.u, s.generate(o))
		default:
			removed = s.filter(o) || removed
		}
	}
	return removed
}

// scan returns the vertices of u's label pool (sorted, so the result is
// the sorted candidate set) that pass the operation's checks. The NLF
// check streams the pool: it reads the pool's signatures in pool order
// (graph.PoolSignatures), not one scattered signature per vertex, and
// only the vertices they pass reach the count check. It needs no degree
// test, because passing NLF implies d(v) ≥ d(u) (nlfOK); the LDF scan
// and the radius-r profile test keep theirs.
func (s *state) scan(o op) []uint32 {
	q, g, u := s.q, s.g, o.u
	l := q.Label(u)
	pool := g.VerticesWithLabel(l)
	out := s.reserve(len(pool))
	switch {
	case o.nlf && s.radius > 1:
		if s.gProf == nil {
			s.gProf = newProfiler(g, s.radius)
			s.qProf = newProfiler(q, s.radius)
		}
		want := s.qProf.profile(q, u)
		for _, v := range pool {
			if g.Degree(v) >= q.Degree(u) && s.gProf.covers(g, v, want) {
				out = append(out, v)
			}
		}
	case o.nlf:
		need, decides := s.qx.Signature(u), signatureDecides(s.qx, s.gx, u)
		for i, sig := range g.PoolSignatures(l) {
			if need&^sig == 0 && (decides || s.qx.CoveredBy(u, s.gx, pool[i])) {
				out = append(out, pool[i])
			}
		}
	default:
		for _, v := range pool {
			if g.Degree(v) >= q.Degree(u) {
				out = append(out, v)
			}
		}
	}
	return s.commit(out)
}

// generate applies Generation Rule 3.1 over C(parent): the NLF-passing
// (so degree-passing, see nlfOK) neighbors of its candidates that carry
// L(u), read as that label's run of each candidate's neighbourhood,
// sorted. They are distinct vertices of u's label pool, so the pool's
// size bounds the row. The seen bitmap dedups; only the accepted
// vertices were marked, so clearing them restores it for the next
// generation.
func (s *state) generate(o op) []uint32 {
	if s.seen.Words() == nil {
		s.seen = bitset.Over(s.g.Bitmap(), s.g.NumVertices())
	}
	u := o.u
	l := s.q.Label(u)
	out := s.reserve(s.g.LabelFrequency(l))
	for _, vp := range s.cand[o.src[0]] {
		for _, v := range s.gx.Run(vp, l) {
			if !s.seen.Contains(v) && nlfOK(s.qx, s.gx, u, v) {
				s.seen.Set(v)
				out = append(out, v)
			}
		}
	}
	for _, v := range out {
		s.seen.Clear(v)
	}
	slices.Sort(out)
	return s.commit(out)
}

// filter runs a prune or refinement over C(u) in place and reports
// whether it removed a candidate. A candidate's check reads the sets of
// u's neighbours, never member[u], so removals take effect at once. A
// refinement keeps u's witness record aligned with C(u): the slots of a
// kept candidate move with it.
func (s *state) filter(o op) bool {
	var wit []uint32
	k := 0
	if o.kind == opMatch {
		if s.matcher == nil {
			s.matcher = bipartite.NewMatcher(s.q.MaxDegree())
		}
		if k = singles(o.classes); k > 0 {
			wit = s.witnesses(o.u, k)
		}
	}
	c := s.cand[o.u]
	n := 0
	for i, v := range c {
		var keep bool
		if o.kind == opMatch {
			keep = s.semiPerfect(s.matcher, o.classes, v, wit[i*k:(i+1)*k])
		} else {
			keep = s.keeps(o, v)
		}
		if keep {
			c[n] = v
			if n < i {
				copy(wit[n*k:(n+1)*k], wit[i*k:(i+1)*k])
			}
			n++
		} else {
			s.member[o.u].Clear(v)
		}
	}
	s.cand[o.u] = c[:n]
	if k > 0 {
		s.wit[o.u] = wit[:n*k]
	}
	return n < len(c)
}

// keeps is the survival check of a prune for one candidate.
func (s *state) keeps(o op, v uint32) bool {
	if o.nlf && !nlfOK(s.qx, s.gx, o.u, v) {
		return false
	}
	for _, up := range o.src {
		if _, ok := s.witness(v, up); !ok {
			return false
		}
	}
	return true
}
