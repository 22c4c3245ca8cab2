package filter

import (
	"subgraphmatching/internal/bitset"
	"subgraphmatching/internal/graph"
	"subgraphmatching/internal/par"
)

// state is the shared machinery of the filters: current candidate sets,
// a membership bitmap per query vertex kept in sync with them so that
// "does v have a neighbor in C(u')" checks are O(d(v)) scans, and the
// worker pool every operation fans out over (parallel.go).
type state struct {
	q, g   *graph.Graph
	cand   [][]uint32
	member []*bitset.Set // member[u].Contains(v) iff v in cand[u]; nil for LDF/NLF, which never read it
	radius int           // > 1: label-pool scans test radius-r profiles instead of NLF (GraphQL)
	fr     *par.Frontier[*scratch]
	tasks  []task // runWave's task list, reused across waves
}

// newState allocates the candidate state over a pool of `workers`
// workers (clamped to at least 1; one worker runs every task inline on
// the caller's goroutine). withMember allocates the membership bitmaps
// the structural filters read.
func newState(q, g *graph.Graph, workers int, withMember bool) *state {
	s := &state{
		q:    q,
		g:    g,
		cand: make([][]uint32, q.NumVertices()),
		fr:   par.NewFrontier(workers, func(int) *scratch { return &scratch{} }),
	}
	if withMember {
		s.member = make([]*bitset.Set, q.NumVertices())
		for u := range s.member {
			s.member[u] = bitset.New(g.NumVertices())
		}
	}
	return s
}

// ldfOK is the label-and-degree check.
func ldfOK(q, g *graph.Graph, u graph.Vertex, v uint32) bool {
	return g.Label(v) == q.Label(u) && g.Degree(v) >= q.Degree(u)
}

// nlfOK checks the neighbor label frequency condition: for every label l
// among u's neighbors, v must have at least as many l-labeled neighbors.
// Both sides come from the graphs' NLF indexes (built once per graph, on
// first use). The label-presence signatures decide first: a label u
// needs whose bit v's signature lacks is a label v has no neighbor of,
// and most rejections end there, on one word per side. Otherwise the
// check is a merge of two sorted label lists (a signature is exact only
// up to labels that collide mod 64, so the merge always has the last
// word). It reads only immutable data — every worker and the root
// selectors call it concurrently.
func nlfOK(q, g *graph.Graph, u graph.Vertex, v uint32) bool {
	qx, gx := q.NLF(), g.NLF()
	if qx.Signature(u)&^gx.Signature(v) != 0 {
		return false
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
func (s *state) hasNeighborIn(v uint32, up graph.Vertex) bool {
	m := s.member[up]
	for _, w := range s.g.Neighbors(v) {
		if m.Contains(w) {
			return true
		}
	}
	return false
}

// result deep-copies the candidate sets out of the state (the state's
// backing arrays are scratch space with spare capacity) and returns the
// per-worker work tallies beside them.
func (s *state) result() ([][]uint32, []uint64) {
	out := make([][]uint32, len(s.cand))
	for i, c := range s.cand {
		out[i] = append([]uint32(nil), c...)
	}
	return out, s.fr.Tally()
}
