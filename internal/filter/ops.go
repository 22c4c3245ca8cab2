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
// the sorted candidate set) that pass the operation's checks.
func (s *state) scan(o op) []uint32 {
	q, g, u := s.q, s.g, o.u
	wide := o.nlf && s.radius > 1
	var want labelProfile
	if wide {
		if s.gProf == nil {
			s.gProf = newProfiler(g, s.radius)
			s.qProf = newProfiler(q, s.radius)
		}
		want = s.qProf.profile(q, u)
	}
	var out []uint32
	for _, v := range g.VerticesWithLabel(q.Label(u)) {
		if g.Degree(v) < q.Degree(u) {
			continue
		}
		if wide {
			if !s.gProf.covers(g, v, want) {
				continue
			}
		} else if o.nlf && !nlfOK(s.qx, s.gx, u, v) {
			continue
		}
		out = append(out, v)
	}
	return out
}

// generate applies Generation Rule 3.1 over C(parent): the degree- and
// NLF-passing neighbors of its candidates that carry L(u), read as that
// label's run of each candidate's neighbourhood, sorted. The seen bitset
// dedups; only the accepted vertices were marked, so clearing them
// restores it for the next generation.
func (s *state) generate(o op) []uint32 {
	if s.seen == nil {
		s.seen = bitset.New(s.g.NumVertices())
	}
	q, g, u := s.q, s.g, o.u
	l := q.Label(u)
	var out []uint32
	for _, vp := range s.cand[o.src[0]] {
		for _, v := range s.gx.Run(vp, l) {
			if !s.seen.Contains(v) && g.Degree(v) >= q.Degree(u) && nlfOK(s.qx, s.gx, u, v) {
				s.seen.Set(v)
				out = append(out, v)
			}
		}
	}
	for _, v := range out {
		s.seen.Clear(v)
	}
	slices.Sort(out)
	return out
}

// filter runs a prune or refinement over C(u) in place and reports
// whether it removed a candidate. A candidate's check reads the sets of
// u's neighbours, never member[u], so removals take effect at once.
func (s *state) filter(o op) bool {
	if o.kind == opMatch && s.matcher == nil {
		s.matcher = bipartite.NewMatcher(s.q.MaxDegree())
	}
	c := s.cand[o.u]
	k := 0
	for _, v := range c {
		if s.keeps(o, v) {
			c[k] = v
			k++
		} else {
			s.member[o.u].Clear(v)
		}
	}
	s.cand[o.u] = c[:k]
	return k < len(c)
}

// keeps is the survival check of a filter operation for one candidate.
func (s *state) keeps(o op, v uint32) bool {
	if o.kind == opMatch {
		return s.semiPerfect(s.matcher, o.classes, v)
	}
	if o.nlf && !nlfOK(s.qx, s.gx, o.u, v) {
		return false
	}
	for _, up := range o.src {
		if !s.hasNeighborIn(v, up) {
			return false
		}
	}
	return true
}
