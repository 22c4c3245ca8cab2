package filter

import (
	"sort"

	"subgraphmatching/internal/bitset"
	"subgraphmatching/internal/graph"
)

// state is the shared machinery of the structural filters: current
// candidate sets plus a membership bitmap per query vertex, kept in sync
// so that "does v have a neighbor in C(u')" checks are O(d(v)) scans.
type state struct {
	q, g   *graph.Graph
	cand   [][]uint32
	member []*bitset.Set // member[u].Contains(v) iff v in cand[u]
}

func newState(q, g *graph.Graph) *state {
	s := &state{
		q:      q,
		g:      g,
		cand:   make([][]uint32, q.NumVertices()),
		member: make([]*bitset.Set, q.NumVertices()),
	}
	for u := range s.member {
		s.member[u] = bitset.New(g.NumVertices())
	}
	return s
}

// ldfOK is the label-and-degree check.
func (s *state) ldfOK(u graph.Vertex, v uint32) bool {
	return s.g.Label(v) == s.q.Label(u) && s.g.Degree(v) >= s.q.Degree(u)
}

// nlfOK checks the neighbor label frequency condition: for every label l
// among u's neighbors, v must have at least as many l-labeled neighbors.
// Both sides come from the graphs' NLF indexes (built once per graph, on
// first use), so the check is a merge of two sorted label lists and
// reads only immutable data — every worker of the parallel runners and
// root selectors calls it on the shared state.
func (s *state) nlfOK(u graph.Vertex, v uint32) bool {
	need, needCnt := s.q.NLF().Of(u)
	have, haveCnt := s.g.NLF().Of(v)
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
	s.member[u].Reset()
	for _, v := range c {
		s.member[u].Set(v)
	}
}

// ldfCandidates returns the sorted LDF candidate set of u.
func (s *state) ldfCandidates(u graph.Vertex) []uint32 {
	var out []uint32
	for _, v := range s.g.VerticesWithLabel(s.q.Label(u)) {
		if s.g.Degree(v) >= s.q.Degree(u) {
			out = append(out, v)
		}
	}
	return out
}

// nlfCandidates returns the sorted LDF+NLF candidate set of u.
func (s *state) nlfCandidates(u graph.Vertex) []uint32 {
	var out []uint32
	for _, v := range s.g.VerticesWithLabel(s.q.Label(u)) {
		if s.g.Degree(v) >= s.q.Degree(u) && s.nlfOK(u, v) {
			out = append(out, v)
		}
	}
	return out
}

// hasNeighborIn reports whether data vertex v has some neighbor in C(u').
func (s *state) hasNeighborIn(v uint32, up graph.Vertex) bool {
	m := s.member[up]
	for _, w := range s.g.Neighbors(v) {
		if m.Contains(w) {
			return true
		}
	}
	return false
}

// prune applies Filtering Rule 3.1: remove every v from C(u) that has no
// neighbor in C(u'). Returns whether anything was removed.
func (s *state) prune(u, up graph.Vertex) bool {
	c := s.cand[u]
	kept := c[:0]
	for _, v := range c {
		if s.hasNeighborIn(v, up) {
			kept = append(kept, v)
		} else {
			s.member[u].Clear(v)
		}
	}
	s.cand[u] = kept
	return len(kept) != len(c)
}

// generateFromParent applies Generation Rule 3.1 with X = {parent}: the
// LDF+NLF-passing neighbors of C(parent)'s candidates, deduplicated and
// sorted, become C(u).
func (s *state) generateFromParent(u, parent graph.Vertex, seen *bitset.Set) {
	seen.Reset()
	var out []uint32
	for _, vp := range s.cand[parent] {
		for _, v := range s.g.Neighbors(vp) {
			if !seen.Contains(v) && s.ldfOK(u, v) && s.nlfOK(u, v) {
				seen.Set(v)
				out = append(out, v)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	s.setCandidates(u, out)
}

// result deep-copies the candidate sets out of the state (the state's
// backing arrays are scratch space).
func (s *state) result() [][]uint32 {
	out := make([][]uint32, len(s.cand))
	for i, c := range s.cand {
		out[i] = append([]uint32(nil), c...)
	}
	return out
}

// RunLabelOnly computes label-only candidate sets: C(u) = {v : L(v) =
// L(u)} with no degree or structural pruning. This is the only sound
// filter for subgraph *homomorphisms*, which may collapse distinct query
// neighbors onto one data vertex (so even the degree condition of LDF
// does not hold).
func RunLabelOnly(q, g *graph.Graph) [][]uint32 {
	out := make([][]uint32, q.NumVertices())
	for u := 0; u < q.NumVertices(); u++ {
		out[u] = append([]uint32(nil), g.VerticesWithLabel(q.Label(graph.Vertex(u)))...)
	}
	return out
}

// RunLDF computes the LDF candidate sets.
func RunLDF(q, g *graph.Graph) [][]uint32 {
	s := newState(q, g)
	for u := 0; u < q.NumVertices(); u++ {
		s.cand[u] = s.ldfCandidates(graph.Vertex(u))
	}
	return s.result()
}

// RunNLF computes the LDF+NLF candidate sets.
func RunNLF(q, g *graph.Graph) [][]uint32 {
	s := newState(q, g)
	for u := 0; u < q.NumVertices(); u++ {
		s.cand[u] = s.nlfCandidates(graph.Vertex(u))
	}
	return s.result()
}

// RunSteady starts from NLF candidates and iterates Filtering Rule 3.1
// over every directed query edge until no candidate set changes: the
// steady state of Observation 3.1 (Figure 8's STEADY baseline).
func RunSteady(q, g *graph.Graph) [][]uint32 {
	s := newState(q, g)
	for u := 0; u < q.NumVertices(); u++ {
		s.setCandidates(graph.Vertex(u), s.nlfCandidates(graph.Vertex(u)))
	}
	for changed := true; changed; {
		changed = false
		for u := 0; u < q.NumVertices(); u++ {
			for _, up := range q.Neighbors(graph.Vertex(u)) {
				if s.prune(graph.Vertex(u), up) {
					changed = true
				}
			}
		}
	}
	return s.result()
}
