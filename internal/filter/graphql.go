package filter

import (
	"fmt"
	"time"

	"subgraphmatching/internal/bipartite"
	"subgraphmatching/internal/graph"
)

// runGraphQL implements GraphQL's two-step filtering (paper Section
// 3.1.1): local pruning by neighborhood profiles of radius r followed
// by `rounds` iterations of global refinement with the pseudo subgraph
// isomorphism test.
//
// With r = 1 the profile of u is the sorted label sequence of u and its
// neighbors; "profile of u is a subsequence of profile of v" is exactly
// multiset inclusion of the labels, i.e. the LDF+NLF condition, so local
// pruning reuses the NLF machinery. The original GraphQL exposes r to
// users; larger radii prune more at a cost of O(|N_r(v)|) per
// candidate: subgraph isomorphisms cannot stretch distances, so the
// label multiset within r hops of u must embed into that of v.
//
// The global refinement checks Observation 3.2: v ∈ C(u) survives only if
// the bipartite graph between N(u) and N(v) — with an edge (u', v') iff
// v' ∈ C(u') — has a semi-perfect matching covering N(u). The query
// vertices are refined in id order and the removals from C(u) take
// effect before the next vertex is refined, strengthening later checks
// within the same round; the candidates of one vertex never read each
// other's membership, so they are checked concurrently.
//
// Trace stages: "local" for the profile-based pruning, then one
// "refine-<k>" per global-refinement round actually executed.
func (s *state) runGraphQL(rounds, radius int, tr *StageTrace) {
	start := time.Now()
	s.radius = radius
	s.run(scanAll(s.q, true))
	start = tr.add("local", start, s.cand)

	refine := make([]op, s.q.NumVertices())
	for u := range refine {
		refine[u] = op{kind: opMatch, u: graph.Vertex(u), src: s.q.Neighbors(graph.Vertex(u))}
	}
	for round := 0; round < rounds; round++ {
		changed := s.run(refine)
		start = tr.add(fmt.Sprintf("refine-%d", round+1), start, s.cand)
		if !changed {
			break
		}
	}
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
