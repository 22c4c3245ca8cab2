package filter

import (
	"cmp"
	"fmt"
	"slices"
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
// v' ∈ C(u') — has a semi-perfect matching covering N(u). Candidates of
// query vertices with different labels are disjoint, so that bipartite
// graph is a disjoint union over the labels of N(u) and Hall's condition
// holds iff it holds per label class (labelClasses): a class of one
// query neighbor needs a single witness in N(v), and only classes of
// two or more same-label neighbors need a matching at all. The query
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
		src := s.q.Neighbors(graph.Vertex(u))
		refine[u] = op{kind: opMatch, u: graph.Vertex(u), src: src, classes: labelClasses(s.q, src)}
	}
	for round := 0; round < rounds; round++ {
		changed := s.run(refine)
		start = tr.add(fmt.Sprintf("refine-%d", round+1), start, s.cand)
		if !changed {
			break
		}
	}
}

// labelClasses cuts qn = N(u) into its label classes — the query
// neighbors that share a label, in id order within a class — smallest
// class first, so the one-witness classes reject before any matching is
// set up.
func labelClasses(q *graph.Graph, qn []graph.Vertex) [][]graph.Vertex {
	byLabel := slices.Clone(qn)
	slices.SortStableFunc(byLabel, func(a, b graph.Vertex) int { return cmp.Compare(q.Label(a), q.Label(b)) })
	var classes [][]graph.Vertex
	for lo := 0; lo < len(byLabel); {
		hi := lo + 1
		for hi < len(byLabel) && q.Label(byLabel[hi]) == q.Label(byLabel[lo]) {
			hi++
		}
		classes = append(classes, byLabel[lo:hi:hi])
		lo = hi
	}
	slices.SortStableFunc(classes, func(a, b []graph.Vertex) int { return cmp.Compare(len(a), len(b)) })
	return classes
}

// semiPerfect tests whether every query neighbor of u can be matched to
// a distinct data neighbor of v that is one of its candidates, label
// class by label class (see runGraphQL). A class of one needs only some
// neighbor of v in its candidate set; a larger class builds the
// bipartite graph between its members and N(v) — a data neighbor's
// right id is its position in N(v), dense, so the matcher's per-right
// state stays d(v) long — and a member with no candidate in N(v) ends
// the test at once.
func (s *state) semiPerfect(m *bipartite.Matcher, classes [][]graph.Vertex, v uint32) bool {
	nv := s.g.Neighbors(v)
	for _, class := range classes {
		if len(class) == 1 {
			if !s.hasNeighborIn(v, class[0]) {
				return false
			}
			continue
		}
		m.Reset(len(class))
		for i, up := range class {
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
		if !m.HasSemiPerfectMatching(len(class)) {
			return false
		}
	}
	return true
}
