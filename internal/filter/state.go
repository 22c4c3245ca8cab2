package filter

import (
	"subgraphmatching/internal/bipartite"
	"subgraphmatching/internal/bitset"
	"subgraphmatching/internal/graph"
)

// state is the shared machinery of the filters: current candidate sets,
// a membership bitmap per query vertex kept in sync with them so that
// "does v have a neighbor in C(u')" checks are scans of the neighbours
// of v labelled L(u') (graph.NLF.Run), and the scratch the operations
// (ops.go) allocate on first use: a dedup bitset for generation, the
// matcher of the semi-perfect matching test, and the radius-r profilers
// of GraphQL's wide local pruning.
type state struct {
	q, g   *graph.Graph
	qx, gx *graph.NLF // the graphs' NLF indexes; nil for LDF, which never reads them
	cand   [][]uint32
	member []*bitset.Set // member[u].Contains(v) iff v in cand[u]; nil for LDF/NLF, which never read it
	radius int           // > 1: label-pool scans test radius-r profiles instead of NLF (GraphQL)

	seen         *bitset.Set
	matcher      *bipartite.Matcher
	gProf, qProf *profiler
}

// newState allocates method m's candidate state: the graphs' NLF indexes
// for every method but LDF, and the membership bitmaps the structural
// filters read.
func newState(q, g *graph.Graph, m Method) *state {
	s := &state{
		q:    q,
		g:    g,
		cand: make([][]uint32, q.NumVertices()),
	}
	if m != LDF {
		s.qx, s.gx = q.NLF(), g.NLF()
	}
	if m != LDF && m != NLF {
		s.member = make([]*bitset.Set, q.NumVertices())
		for u := range s.member {
			s.member[u] = bitset.New(g.NumVertices())
		}
	}
	return s
}

// nlfOK checks the neighbor label frequency condition: for every label l
// among u's neighbors, v must have at least as many l-labeled neighbors.
// Both sides come from the graphs' NLF indexes, qx of the query and gx
// of the data graph (built once per graph, on first use; callers look
// them up once, not per check). The label-presence signatures decide
// first: a label u needs whose bit v's signature lacks is a label v has
// no neighbor of, and most rejections end there, on one word per side.
// When both signatures are exact and u needs each of its labels once,
// passing that test is the whole condition. Otherwise the check is a
// merge of two sorted label lists (a signature is exact only up to
// labels that collide mod 64, and it cannot count). It reads only
// immutable data, so concurrent filter runs share the indexes.
func nlfOK(qx, gx *graph.NLF, u graph.Vertex, v uint32) bool {
	if qx.Signature(u)&^gx.Signature(v) != 0 {
		return false
	}
	if qx.PresenceOnly(u) && qx.Exact() && gx.Exact() {
		return true
	}
	need, needCnt := qx.Of(u)
	have, haveCnt := gx.Of(v)
	j := 0
	for i, l := range need {
		for j < len(have) && have[j] < l {
			j++
		}
		if j == len(have) || have[j] != l || haveCnt[j] < needCnt[i] {
			return false
		}
		j++
	}
	return true
}

// setCandidates installs a sorted candidate list for u and rebuilds its
// membership bitmap.
func (s *state) setCandidates(u graph.Vertex, c []uint32) {
	s.cand[u] = c
	if s.member == nil {
		return
	}
	s.member[u].Reset()
	for _, v := range c {
		s.member[u].Set(v)
	}
}

// hasNeighborIn reports whether data vertex v has some neighbor in C(u').
// Every member of C(u') carries L(u'), so only that label's run of N(v)
// is scanned.
func (s *state) hasNeighborIn(v uint32, up graph.Vertex) bool {
	m := s.member[up]
	for _, w := range s.gx.Run(v, s.q.Label(up)) {
		if m.Contains(w) {
			return true
		}
	}
	return false
}

// result deep-copies the candidate sets out of the state (the state's
// backing arrays are scratch space with spare capacity).
func (s *state) result() [][]uint32 {
	out := make([][]uint32, len(s.cand))
	for i, c := range s.cand {
		out[i] = append([]uint32(nil), c...)
	}
	return out
}
