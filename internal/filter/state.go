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
// (ops.go) use: a dedup bitmap for generation, the matcher of the
// semi-perfect matching test, the radius-r profilers of GraphQL's wide
// local pruning, and GraphQL's witness records.
//
// The |V(G)|-sized scratch — the bitmaps and the chunk the candidate
// sets and witness records are carved from — comes from the data
// graph's free lists (graph.Bitmap, graph.Buffer) and goes back to them
// on release, so a plan build allocates none of it once the graph has
// served as many builds at once before.
type state struct {
	q, g   *graph.Graph
	qx, gx *graph.NLF // the graphs' NLF indexes; nil for LDF, which never reads them
	cand   [][]uint32
	member []bitset.Set // member[u].Contains(v) iff v in cand[u]; nil for LDF/NLF, which never read it
	radius int          // > 1: label-pool scans test radius-r profiles instead of NLF (GraphQL)

	// rows is the chunk the candidate sets and witness records are
	// carved from (reserve, commit).
	rows []uint32
	// wit[u] is u's witness record under GraphQL's refinement
	// (semiPerfect), aligned with cand[u]: with k one-member label
	// classes in N(u), wit[u][i*k+j] is a neighbour of cand[u][i] that
	// was in the set of the j-th class's member when last checked, or
	// graph.NoVertex. nil until u's first refinement, and for methods
	// other than GQL.
	wit [][]uint32

	seen         bitset.Set // generate's dedup bitmap; no words until first use
	matcher      *bipartite.Matcher
	gProf, qProf *profiler
}

// newState sets up method m's candidate state: the graphs' NLF indexes
// for every method but LDF, and the membership bitmaps the structural
// filters read.
func newState(q, g *graph.Graph, m Method) *state {
	s := &state{
		q:    q,
		g:    g,
		cand: make([][]uint32, q.NumVertices()),
		rows: g.Buffer(),
	}
	if m != LDF {
		s.qx, s.gx = q.NLF(), g.NLF()
	}
	if m != LDF && m != NLF {
		s.member = make([]bitset.Set, q.NumVertices())
		for u := range s.member {
			s.member[u] = bitset.Over(g.Bitmap(), g.NumVertices())
		}
	}
	if m == GQL {
		s.wit = make([][]uint32, q.NumVertices())
	}
	return s
}

// release hands the state's scratch back to the data graph: each
// membership bitmap once the bits of its final candidate set are
// cleared (never a full reset), the dedup bitmap (generate leaves it
// clear) and the row chunk. The candidate sets alias the chunk, so
// release comes after result and the state is not used again.
func (s *state) release() {
	for u, m := range s.member {
		for _, v := range s.cand[u] {
			m.Clear(v)
		}
		s.g.PutBitmap(m.Words())
	}
	if s.seen.Words() != nil {
		s.g.PutBitmap(s.seen.Words())
	}
	s.g.PutBuffer(s.rows)
	s.member, s.rows = nil, nil
}

// reserve returns an empty row with room for n values at the end of
// the row chunk; the caller appends at most n and hands the row to
// commit before it reserves again. A chunk without that room is
// replaced by a new one, and the rows already carved keep the old one.
// The new chunk is sized for the whole build so far — what it used and
// n more — with a quarter to spare, since it is the one parked for the
// next build: the parked chunk settles near what the largest builds
// need rather than at up to twice it.
func (s *state) reserve(n int) []uint32 {
	if cap(s.rows)-len(s.rows) < n {
		s.rows = make([]uint32, 0, (len(s.rows)+n)*5/4)
	}
	return s.rows[len(s.rows):len(s.rows)]
}

// commit keeps the row reserve handed out, filled in place, and returns
// it at its exact capacity.
func (s *state) commit(row []uint32) []uint32 {
	s.rows = s.rows[:len(s.rows)+len(row)]
	return row[:len(row):len(row)]
}

// nlfOK checks the neighbor label frequency condition: for every label l
// among u's neighbors, v must have at least as many l-labeled neighbors.
// Both sides come from the graphs' NLF indexes, qx of the query and gx
// of the data graph (built once per graph, on first use; callers look
// them up once, not per check). The label-presence signatures decide
// first: a label u needs whose bit v's signature lacks is a label v has
// no neighbor of, and most rejections end there, on one word per side.
// When both signatures are exact and u needs each of its labels once,
// passing that test is the whole condition. Otherwise the index's count
// check decides (graph.NLF.CoveredBy). It reads only immutable data, so
// concurrent filter runs share the indexes.
//
// Passing implies d(v) ≥ d(u) on simple graphs: the count check demands
// cnt_v(l) ≥ cnt_u(l) for every label of N(u), and those counts sum to
// d(u); the signature alone decides only when each label of N(u)
// occurs once and a signature bit is one label, so v has at least d(u)
// distinct neighbour labels.
func nlfOK(qx, gx *graph.NLF, u graph.Vertex, v uint32) bool {
	if qx.Signature(u)&^gx.Signature(v) != 0 {
		return false
	}
	return signatureDecides(qx, gx, u) || qx.CoveredBy(u, gx, v)
}

// signatureDecides reports whether passing the signature test is the
// whole NLF condition for u: both signatures are exact and u needs each
// of its labels once.
func signatureDecides(qx, gx *graph.NLF, u graph.Vertex) bool {
	return qx.PresenceOnly(u) && qx.Exact() && gx.Exact()
}

// setCandidates installs a sorted candidate list for u, which must not
// share its array with u's current set. u's membership bitmap moves
// from the old set to c by clearing the old set's bits and setting c's,
// and u's witness record, aligned with the old set, is dropped.
func (s *state) setCandidates(u graph.Vertex, c []uint32) {
	if s.member != nil {
		m := s.member[u]
		for _, v := range s.cand[u] {
			m.Clear(v)
		}
		for _, v := range c {
			m.Set(v)
		}
	}
	s.cand[u] = c
	if s.wit != nil {
		s.wit[u] = nil
	}
}

// witness returns a neighbor of data vertex v in C(u'), if it has one.
// Every member of C(u') carries L(u'), so only that label's run of N(v)
// is scanned.
func (s *state) witness(v uint32, up graph.Vertex) (uint32, bool) {
	m := s.member[up]
	for _, w := range s.gx.Run(v, s.q.Label(up)) {
		if m.Contains(w) {
			return w, true
		}
	}
	return 0, false
}

// witnesses returns u's witness record with k slots per candidate,
// making it — every slot graph.NoVertex — on u's first refinement.
func (s *state) witnesses(u graph.Vertex, k int) []uint32 {
	if s.wit[u] == nil {
		n := len(s.cand[u]) * k
		row := s.reserve(n)[:n]
		for i := range row {
			row[i] = graph.NoVertex
		}
		s.wit[u] = s.commit(row)
	}
	return s.wit[u]
}

// result copies the candidate sets out of the state into one slab of
// exactly their total size: the state's rows go back to the data graph,
// and a plan is charged len(C(u)) per set (MemoryBytes), which is then
// all it holds. An empty set stays nil.
func (s *state) result() [][]uint32 {
	out := make([][]uint32, len(s.cand))
	slab := make([]uint32, TotalCandidates(s.cand))
	for u, c := range s.cand {
		if len(c) > 0 {
			out[u] = slab[:len(c):len(c)]
			slab = slab[copy(slab, c):]
		}
	}
	return out
}
