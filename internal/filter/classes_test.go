package filter

import (
	"math/rand"
	"reflect"
	"testing"

	"subgraphmatching/internal/bipartite"
	"subgraphmatching/internal/graph"
	"subgraphmatching/internal/testutil"
)

// semiPerfectAll is GraphQL's refinement check without the label-class
// split — one bipartite graph between all of qn = N(u) and N(v), one
// matching — which is Observation 3.2 as the paper states it. It is the
// reference semiPerfect is held to.
func semiPerfectAll(s *state, m *bipartite.Matcher, qn []graph.Vertex, v uint32) bool {
	m.Reset(len(qn))
	for i, up := range qn {
		for pos, w := range s.g.Neighbors(v) {
			if s.member[up].Contains(w) {
				m.AddEdge(i, int32(pos))
			}
		}
	}
	return m.HasSemiPerfectMatching(len(qn))
}

func TestLabelClasses(t *testing.T) {
	// Vertex i of the query carries labels[i]; the centre is vertex 0
	// (label 9) and every other vertex is its neighbour.
	for _, c := range []struct {
		name   string
		labels []graph.Label
		want   [][]graph.Vertex
	}{
		{"one neighbour", []graph.Label{9, 3}, [][]graph.Vertex{{1}}},
		{"all distinct", []graph.Label{9, 5, 3, 4}, [][]graph.Vertex{{2}, {3}, {1}}},
		{"all equal", []graph.Label{9, 3, 3, 3}, [][]graph.Vertex{{1, 2, 3}}},
		{"mixed, smallest class first", []graph.Label{9, 3, 7, 3, 5, 7, 3}, [][]graph.Vertex{{4}, {2, 5}, {1, 3, 6}}},
		{"centre's own label among them", []graph.Label{9, 9, 2, 9}, [][]graph.Vertex{{2}, {1, 3}}},
	} {
		var edges [][2]graph.Vertex
		for i := 1; i < len(c.labels); i++ {
			edges = append(edges, [2]graph.Vertex{0, graph.Vertex(i)})
		}
		q := graph.MustFromEdges(c.labels, edges)
		if got := labelClasses(q, q.Neighbors(0)); !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: labelClasses = %v, want %v", c.name, got, c.want)
		}
	}
}

// FuzzSemiPerfectClasses: the per-label-class test answers exactly what
// the one-matching test over all of N(u) answers, for every query
// vertex u and every data vertex v, in every candidate state the
// refinement passes through. Labels are drawn from 1–4 values, so a
// neighbourhood is one shared-label class, several classes of 2–4, all
// singletons, or (2-vertex queries) a single neighbour; the states are
// the one after local pruning, the one after each refinement round, and
// randomly thinned sets between them (what a round looks like part-way
// through).
func FuzzSemiPerfectClasses(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(3)) // one label: N(u) is one class
	f.Add(int64(2), uint8(1), uint8(4)) // two labels: classes of 2-4
	f.Add(int64(3), uint8(3), uint8(2)) // four labels: mostly singletons
	f.Add(int64(4), uint8(2), uint8(0)) // one query edge: d(u) = 1
	f.Fuzz(func(t *testing.T, seed int64, labels, qsize uint8) {
		rng := rand.New(rand.NewSource(seed))
		n := 6 + rng.Intn(18)
		g := testutil.RandomGraph(rng, n, 3*n, 1+int(labels)%4)
		q := testutil.RandomConnectedQuery(rng, g, 2+int(qsize)%5)
		if q == nil {
			t.Skip()
		}
		s := newState(q, g, 1, true)
		m := bipartite.NewMatcher(q.MaxDegree())
		refine := make([]op, q.NumVertices())
		for u := range refine {
			src := q.Neighbors(graph.Vertex(u))
			refine[u] = op{kind: opMatch, u: graph.Vertex(u), src: src, classes: labelClasses(q, src)}
		}
		compare := func(state string) {
			t.Helper()
			for _, o := range refine {
				for v := 0; v < n; v++ {
					got, want := s.semiPerfect(m, o.classes, uint32(v)), semiPerfectAll(s, m, o.src, uint32(v))
					if got != want {
						t.Fatalf("%s: semiPerfect(u%d, v%d) = %v by label class %v, %v over all of N(u) = %v\nC = %v",
							state, o.u, v, got, o.classes, want, o.src, s.cand)
					}
				}
			}
		}
		s.run(scanAll(q, true))
		compare("after local pruning")
		for round := 1; round <= 3; round++ {
			// Part-way through a round some sets have lost candidates
			// and others not yet: drop a random few, compare, then let
			// the real round run from there.
			for u, c := range s.cand {
				kept := c[:0:0]
				for _, v := range c {
					if rng.Intn(4) > 0 {
						kept = append(kept, v)
					}
				}
				s.setCandidates(graph.Vertex(u), kept)
			}
			compare("thinned")
			s.run(refine)
			compare("after a refinement round")
		}
	})
}
