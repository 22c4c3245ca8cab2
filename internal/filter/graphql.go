package filter

import (
	"fmt"
	"time"

	"subgraphmatching/internal/bipartite"
	"subgraphmatching/internal/graph"
)

// RunGraphQL implements GraphQL's two-step filtering (paper Section
// 3.1.1): local pruning by neighborhood profiles (r = 1) followed by
// `rounds` iterations of global refinement with the pseudo subgraph
// isomorphism test.
//
// With r = 1 the profile of u is the sorted label sequence of u and its
// neighbors; "profile of u is a subsequence of profile of v" is exactly
// multiset inclusion of the labels, i.e. the LDF+NLF condition, so local
// pruning reuses the NLF machinery.
//
// The global refinement checks Observation 3.2: v ∈ C(u) survives only if
// the bipartite graph between N(u) and N(v) — with an edge (u', v') iff
// v' ∈ C(u') — has a semi-perfect matching covering N(u). Removals take
// effect immediately, strengthening later checks within the same round.
func RunGraphQL(q, g *graph.Graph, rounds int) [][]uint32 {
	return RunGraphQLRadius(q, g, rounds, 1)
}

// RunGraphQLRadius is RunGraphQL with a configurable profile radius r
// (hops of neighbors considered in the local pruning). The original
// GraphQL exposes r to users; r = 1 is the common setting and reduces to
// the NLF check. Larger radii prune more at a cost of O(|N_r(v)|) per
// candidate: subgraph isomorphisms cannot stretch distances, so the
// label multiset within r hops of u must embed into that of v.
func RunGraphQLRadius(q, g *graph.Graph, rounds, radius int) [][]uint32 {
	return runGraphQLRadius(q, g, rounds, radius, nil)
}

// runGraphQLRadius is the implementation with optional stage tracing:
// one "local" stage for the profile-based pruning, then one
// "refine-<k>" stage per global-refinement round actually executed.
func runGraphQLRadius(q, g *graph.Graph, rounds, radius int, tr *StageTrace) [][]uint32 {
	start := time.Now()
	s := newState(q, g)
	if radius <= 1 {
		for u := 0; u < q.NumVertices(); u++ {
			s.setCandidates(graph.Vertex(u), s.nlfCandidates(graph.Vertex(u)))
		}
	} else {
		p := newProfiler(g, radius)
		qp := newProfiler(q, radius)
		for u := 0; u < q.NumVertices(); u++ {
			uu := graph.Vertex(u)
			want := qp.profile(q, uu)
			var out []uint32
			for _, v := range g.VerticesWithLabel(q.Label(uu)) {
				if g.Degree(v) < q.Degree(uu) {
					continue
				}
				if p.covers(g, v, want) {
					out = append(out, v)
				}
			}
			s.setCandidates(uu, out)
		}
	}

	start = tr.add("local", start, s.cand)

	matcher := bipartite.NewMatcher(q.MaxDegree())
	for round := 0; round < rounds; round++ {
		changed := false
		for u := 0; u < q.NumVertices(); u++ {
			uu := graph.Vertex(u)
			qn := q.Neighbors(uu)
			c := s.cand[u]
			kept := c[:0]
			for _, v := range c {
				if s.semiPerfect(matcher, qn, v) {
					kept = append(kept, v)
				} else {
					s.member[u].Clear(v)
					changed = true
				}
			}
			s.cand[u] = kept
		}
		start = tr.add(fmt.Sprintf("refine-%d", round+1), start, s.cand)
		if !changed {
			break
		}
	}
	return s.result()
}

// semiPerfect builds the bipartite graph between qn = N(u) and N(v) and
// tests whether every query neighbor can be matched to a distinct data
// neighbor that is one of its candidates. A data neighbor's right id is
// its position in N(v) — dense, so the matcher's per-right state stays
// d(v) long — and a query neighbor with no candidate in N(v) ends the
// test at once (HasSemiPerfectMatching would reject it first anyway).
func (s *state) semiPerfect(m *bipartite.Matcher, qn []graph.Vertex, v uint32) bool {
	m.Reset(len(qn))
	nv := s.g.Neighbors(v)
	for i, up := range qn {
		mem := s.member[up]
		edges := 0
		for pos, w := range nv {
			if mem.Contains(w) {
				m.AddEdge(i, int32(pos))
				edges++
			}
		}
		if edges == 0 {
			return false
		}
	}
	return m.HasSemiPerfectMatching(len(qn))
}
