package filter

import (
	"math/rand"
	"reflect"
	"slices"
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

// wideLabels relabels g with label l as 64·l: every label but 0 is at
// least 64 and all of them share signature bit 0, so the NLF index is
// not exact and its label runs are found by binary search.
func wideLabels(g *graph.Graph) *graph.Graph {
	labels := make([]graph.Label, g.NumVertices())
	for v, l := range g.Labels() {
		labels[v] = 64 * l
	}
	return graph.MustFromEdges(labels, g.Edges())
}

// thin removes the candidates of C(u) that keep rejects the way a
// refinement does (state.filter): in place, the membership bitmap
// cleared, and u's witness record compacted along with the set.
func thin(s *state, u graph.Vertex, k int, keep func(uint32) bool) {
	c, wit := s.cand[u], s.wit[u]
	n := 0
	for i, v := range c {
		if !keep(v) {
			s.member[u].Clear(v)
			continue
		}
		c[n] = v
		if wit != nil {
			copy(wit[n*k:(n+1)*k], wit[i*k:(i+1)*k])
		}
		n++
	}
	s.cand[u] = c[:n]
	if wit != nil {
		s.wit[u] = wit[:n*k]
	}
}

// FuzzSemiPerfectClasses: the per-label-class test, resumed from the
// witnesses the refinement recorded, answers exactly what the
// one-matching test over all of N(u) answers, for every query vertex u
// and every data vertex v, in every candidate state the refinement
// passes through. Labels are drawn from 1–4 values, so a neighbourhood
// is one shared-label class, several classes of 2–4, all singletons, or
// (2-vertex queries) a single neighbour; bit 2 of labels moves the
// alphabet above 64 (wideLabels). The states are the one after local
// pruning, the one after each refinement round, and randomly thinned
// sets between them (what a round looks like part-way through: some
// witnesses removed, others not). A candidate of u is checked from a
// copy of its recorded witnesses, every other v from none, and every
// recorded witness must be a neighbour of its candidate carrying its
// class's label.
func FuzzSemiPerfectClasses(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(3)) // one label: N(u) is one class
	f.Add(int64(2), uint8(1), uint8(4)) // two labels: classes of 2-4
	f.Add(int64(3), uint8(3), uint8(2)) // four labels: mostly singletons
	f.Add(int64(4), uint8(2), uint8(0)) // one query edge: d(u) = 1
	f.Add(int64(5), uint8(7), uint8(4)) // four labels above 64
	f.Add(int64(6), uint8(5), uint8(3)) // two labels above 64
	f.Fuzz(func(t *testing.T, seed int64, labels, qsize uint8) {
		rng := rand.New(rand.NewSource(seed))
		n := 6 + rng.Intn(18)
		g := testutil.RandomGraph(rng, n, 3*n, 1+int(labels)%4)
		if labels&4 != 0 {
			g = wideLabels(g)
		}
		q := testutil.RandomConnectedQuery(rng, g, 2+int(qsize)%5)
		if q == nil {
			t.Skip()
		}
		s := newState(q, g, GQL)
		defer s.release()
		m := bipartite.NewMatcher(q.MaxDegree())
		refine := make([]op, q.NumVertices())
		for u := range refine {
			src := q.Neighbors(graph.Vertex(u))
			refine[u] = op{kind: opMatch, u: graph.Vertex(u), src: src, classes: labelClasses(q, src)}
		}
		compare := func(state string) {
			t.Helper()
			for _, o := range refine {
				k := singles(o.classes)
				for v := 0; v < n; v++ {
					wit := make([]uint32, k)
					for j := range wit {
						wit[j] = graph.NoVertex
					}
					if i, ok := slices.BinarySearch(s.cand[o.u], uint32(v)); ok && s.wit[o.u] != nil {
						copy(wit, s.wit[o.u][i*k:(i+1)*k])
					}
					for j, w := range wit {
						if w != graph.NoVertex && (!g.HasEdge(uint32(v), w) || g.Label(w) != q.Label(o.classes[j][0])) {
							t.Fatalf("%s: u%d's witness of v%d for class %v is v%d, not a neighbour in its label", state, o.u, v, o.classes[j], w)
						}
					}
					got, want := s.semiPerfect(m, o.classes, uint32(v), wit), semiPerfectAll(s, m, o.src, uint32(v))
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
			for _, o := range refine {
				thin(s, o.u, singles(o.classes), func(uint32) bool { return rng.Intn(4) > 0 })
			}
			compare("thinned")
			s.run(refine)
			compare("after a refinement round")
		}
	})
}
