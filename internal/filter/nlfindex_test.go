package filter

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"subgraphmatching/internal/graph"
	"subgraphmatching/internal/testutil"
)

// refFilter is the reference the index-backed filters are held to: the
// NLF condition by counting L(N(v)) with a graph.LabelCounter on every
// check (what nlfOK did before the per-graph index), candidate sets as
// plain sorted slices with binary-search membership, and the
// semi-perfect matching by exhaustive search. It shares no code with
// state.
type refFilter struct {
	q, g    *graph.Graph
	counter *graph.LabelCounter
	cand    [][]uint32
}

func newRefFilter(q, g *graph.Graph) *refFilter {
	return &refFilter{
		q:       q,
		g:       g,
		counter: graph.NewLabelCounter(graph.MaxLabelOf(q, g)),
		cand:    make([][]uint32, q.NumVertices()),
	}
}

func (r *refFilter) nlfOK(u graph.Vertex, v uint32) bool {
	r.counter.CountNeighbors(r.q, u)
	need := map[graph.Label]int32{}
	for _, l := range r.counter.Touched() {
		need[l] = r.counter.Count(l)
	}
	r.counter.CountNeighbors(r.g, v)
	for l, c := range need {
		if r.counter.Count(l) < c {
			return false
		}
	}
	return true
}

func (r *refFilter) ok(u graph.Vertex, v uint32) bool {
	return r.g.Label(v) == r.q.Label(u) && r.g.Degree(v) >= r.q.Degree(u) && r.nlfOK(u, v)
}

func (r *refFilter) fromLabelPool(u graph.Vertex) []uint32 {
	var out []uint32
	for v := 0; v < r.g.NumVertices(); v++ {
		if r.ok(u, uint32(v)) {
			out = append(out, uint32(v))
		}
	}
	return out
}

// fromParent is Generation Rule 3.1 with X = {parent}.
func (r *refFilter) fromParent(u, parent graph.Vertex) []uint32 {
	seen := map[uint32]bool{}
	var out []uint32
	for _, vp := range r.cand[parent] {
		for _, v := range r.g.Neighbors(vp) {
			if !seen[v] && r.ok(u, v) {
				seen[v] = true
				out = append(out, v)
			}
		}
	}
	slices.Sort(out)
	return out
}

// prune is Filtering Rule 3.1.
func (r *refFilter) prune(u, up graph.Vertex) {
	var kept []uint32
	for _, v := range r.cand[u] {
		if slices.ContainsFunc(r.g.Neighbors(v), func(w uint32) bool { return containsVertex(r.cand[up], w) }) {
			kept = append(kept, v)
		}
	}
	r.cand[u] = kept
}

func (r *refFilter) nlf() [][]uint32 {
	for u := range r.cand {
		r.cand[u] = r.fromLabelPool(graph.Vertex(u))
	}
	return r.cand
}

func (r *refFilter) cfl(root graph.Vertex) [][]uint32 {
	t := graph.NewBFSTree(r.q, root)
	visited := make([]bool, r.q.NumVertices())
	for _, u := range t.Order {
		if u == root {
			r.cand[u] = r.fromLabelPool(u)
		} else {
			r.cand[u] = r.fromParent(u, t.Parent[u])
			for _, un := range r.q.Neighbors(u) {
				if visited[un] && un != t.Parent[u] {
					r.prune(u, un)
					r.prune(un, u)
				}
			}
		}
		visited[u] = true
	}
	for i := len(t.Order) - 1; i >= 0; i-- {
		u := t.Order[i]
		for _, un := range r.q.Neighbors(u) {
			if t.Depth[un] > t.Depth[u] {
				r.prune(u, un)
			}
		}
	}
	return r.cand
}

func (r *refFilter) ceci(root graph.Vertex) [][]uint32 {
	t := graph.NewBFSTree(r.q, root)
	pos := make([]int, r.q.NumVertices())
	for i, u := range t.Order {
		pos[u] = i
	}
	for i, u := range t.Order {
		if i == 0 {
			r.cand[u] = r.fromLabelPool(u)
			continue
		}
		p := t.Parent[u]
		r.cand[u] = r.fromParent(u, p)
		r.prune(p, u)
		for _, un := range r.q.Neighbors(u) {
			if pos[un] < i && un != p {
				r.prune(u, un)
				r.prune(un, u)
			}
		}
	}
	children := t.Children()
	for i := len(t.Order) - 1; i >= 0; i-- {
		u := t.Order[i]
		for _, c := range children[u] {
			r.prune(u, c)
		}
	}
	return r.cand
}

// semiPerfect tries every injective assignment of N(u) into N(v).
func (r *refFilter) semiPerfect(u graph.Vertex, v uint32) bool {
	qn := r.q.Neighbors(u)
	used := map[uint32]bool{}
	var assign func(i int) bool
	assign = func(i int) bool {
		if i == len(qn) {
			return true
		}
		for _, w := range r.g.Neighbors(v) {
			if !used[w] && containsVertex(r.cand[qn[i]], w) {
				used[w] = true
				if assign(i + 1) {
					return true
				}
				delete(used, w)
			}
		}
		return false
	}
	return assign(0)
}

func (r *refFilter) gql(rounds int) [][]uint32 {
	r.nlf()
	for round := 0; round < rounds; round++ {
		changed := false
		for u := range r.cand {
			var kept []uint32
			for _, v := range r.cand[u] {
				if r.semiPerfect(graph.Vertex(u), v) {
					kept = append(kept, v)
				} else {
					changed = true
				}
			}
			r.cand[u] = kept
		}
		if !changed {
			break
		}
	}
	return r.cand
}

// nlfCase draws a data graph with isolated vertices and gapped labels
// {0,2,4}, and a connected query that is an induced subgraph of it (so
// requirements often equal what a data vertex has) with one extra leaf
// whose label is drawn from 0..6: that makes requirements one above the
// available count, labels the data graph lacks (1, 3) and labels above
// its maximum (5, 6).
func nlfCase(rng *rand.Rand) (q, g *graph.Graph) {
	return nlfCaseLabelled(rng,
		func() graph.Label { return graph.Label(rng.Intn(3)) * 2 },
		func() graph.Label { return graph.Label(rng.Intn(7)) })
}

// wideNLFCase is nlfCase over a 200-label alphabet in which most
// vertices draw from {0,1,2} + 64·{0,1,2,3}: labels that share a
// signature bit are everywhere, so a requirement for label l regularly
// meets a data vertex that only has neighbours labelled l ± 64.
func wideNLFCase(rng *rand.Rand) (q, g *graph.Graph) {
	draw := func() graph.Label {
		if rng.Intn(4) == 0 {
			return graph.Label(rng.Intn(200))
		}
		return graph.Label(rng.Intn(3) + 64*rng.Intn(4))
	}
	return nlfCaseLabelled(rng, draw, draw)
}

func nlfCaseLabelled(rng *rand.Rand, dataLabel, leafLabel func() graph.Label) (q, g *graph.Graph) {
	n := 8 + rng.Intn(25)
	b := graph.NewBuilder(n, 4*n)
	for i := 0; i < n; i++ {
		b.AddVertex(dataLabel())
	}
	for i := 0; i < 4*n; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v && u%5 != 0 && v%5 != 0 {
			b.AddEdge(graph.Vertex(u), graph.Vertex(v))
		}
	}
	g = b.MustBuild()
	base := testutil.RandomConnectedQuery(rng, g, 2+rng.Intn(4))
	if base == nil {
		return nil, g
	}
	labels := slices.Clone(base.Labels())
	edges := base.Edges()
	if rng.Intn(3) > 0 {
		leaf := graph.Vertex(len(labels))
		labels = append(labels, leafLabel())
		edges = append(edges, [2]graph.Vertex{graph.Vertex(rng.Intn(int(leaf))), leaf})
	}
	return graph.MustFromEdges(labels, edges), g
}

// emptyNotNil makes "no candidates" compare equal however it was built.
func emptyNotNil(cand [][]uint32) [][]uint32 {
	out := make([][]uint32, len(cand))
	for u, c := range cand {
		out[u] = append([]uint32{}, c...)
	}
	return out
}

// nlfTally counts what a corpus exercised: nlfOK verdicts, and among
// the rejections those the signatures could not make — some needed
// label is absent from N(v) but shares its bit with one that is there.
type nlfTally struct{ accepted, rejected, collided int }

// checkAgainstCounting holds nlfOK to the counting check for every
// (u, v), and every filter built on it to the reference's sets. The
// reference never looks at a signature.
func checkAgainstCounting(t *testing.T, seed int64, q, g *graph.Graph, tally *nlfTally) {
	t.Helper()
	ref := newRefFilter(q, g)
	for u := 0; u < q.NumVertices(); u++ {
		need, _ := q.NLF().Of(graph.Vertex(u))
		for v := 0; v < g.NumVertices(); v++ {
			got, want := nlfOK(q, g, graph.Vertex(u), uint32(v)), ref.nlfOK(graph.Vertex(u), uint32(v))
			if got != want {
				t.Fatalf("seed %d: nlfOK(u%d, v%d) = %v, counting says %v", seed, u, v, got, want)
			}
			if got {
				tally.accepted++
				continue
			}
			tally.rejected++
			have, _ := g.NLF().Of(uint32(v))
			missing := slices.ContainsFunc(need, func(l graph.Label) bool { return !slices.Contains(have, l) })
			if missing && q.NLF().Signature(graph.Vertex(u))&^g.NLF().Signature(uint32(v)) == 0 {
				tally.collided++
			}
		}
	}
	check := func(name string, got, want [][]uint32) {
		t.Helper()
		if !reflect.DeepEqual(emptyNotNil(got), emptyNotNil(want)) {
			t.Fatalf("seed %d: %s = %v, reference %v", seed, name, got, want)
		}
	}
	run := func(m Method) [][]uint32 {
		t.Helper()
		cand, err := Run(m, q, g)
		if err != nil {
			t.Fatalf("seed %d: Run(%v): %v", seed, m, err)
		}
		return cand
	}
	check("Run(NLF)", run(NLF), newRefFilter(q, g).nlf())
	check("Run(GQL)", run(GQL), newRefFilter(q, g).gql(DefaultGQLRounds))
	check("Run(CFL)", run(CFL), newRefFilter(q, g).cfl(Root(CFL, q, g, 1)))
	check("Run(CECI)", run(CECI), newRefFilter(q, g).ceci(Root(CECI, q, g, 1)))
}

// The index-backed nlfOK is the counting check, pair by pair, and every
// filter built on it returns the reference's sets.
func TestNLFIndexMatchesCounting(t *testing.T) {
	var tally nlfTally
	for seed, cases := int64(0), 0; cases < 300; seed++ {
		q, g := nlfCase(rand.New(rand.NewSource(seed)))
		if q == nil {
			continue
		}
		cases++
		checkAgainstCounting(t, seed, q, g, &tally)
	}
	if tally.accepted == 0 || tally.rejected == 0 {
		t.Fatalf("degenerate corpus: %+v", tally)
	}
}

// With more than 64 labels the signature's bits collide, and a collision
// may only hand the decision to the merge: on a 200-label corpus built
// to collide, every verdict and every candidate set is still the
// signature-free reference's.
func TestNLFSignatureCollisionsChangeNothing(t *testing.T) {
	var tally nlfTally
	for seed, cases := int64(0), 0; cases < 300; seed++ {
		q, g := wideNLFCase(rand.New(rand.NewSource(seed)))
		if q == nil {
			continue
		}
		cases++
		checkAgainstCounting(t, seed, q, g, &tally)
	}
	if tally.accepted == 0 || tally.rejected == 0 || tally.collided == 0 {
		t.Fatalf("degenerate corpus: %+v", tally)
	}
	t.Logf("%+v", tally)
}

// The boundary cases by hand: a star query needing k neighbours of one
// label against data vertices that have k−1, k and k+1 of them.
func TestNLFIndexRequirementBoundary(t *testing.T) {
	// Data: hubs 0, 1, 2 (label 9) with 1, 2 and 3 leaves of label 7.
	g := graph.MustFromEdges(
		[]graph.Label{9, 9, 9, 7, 7, 7, 7, 7, 7},
		[][2]graph.Vertex{{0, 3}, {1, 4}, {1, 5}, {2, 6}, {2, 7}, {2, 8}},
	)
	// Query: a hub with two label-7 leaves.
	q := graph.MustFromEdges([]graph.Label{9, 7, 7}, [][2]graph.Vertex{{0, 1}, {0, 2}})
	for v, want := range []bool{false, true, true} {
		if got := nlfOK(q, g, 0, uint32(v)); got != want {
			t.Errorf("nlfOK(hub, v%d) = %v, want %v", v, got, want)
		}
	}
	if got, want := mustRun(t, NLF, q, g, Options{})[0], []uint32{1, 2}; !reflect.DeepEqual(got, want) {
		t.Errorf("C(hub) = %v, want %v", got, want)
	}
}
