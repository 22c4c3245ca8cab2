package enumerate

import (
	"math/rand"
	"strings"
	"testing"
	"time"

	"subgraphmatching/internal/candspace"
	"subgraphmatching/internal/filter"
	"subgraphmatching/internal/graph"
	"subgraphmatching/internal/testutil"
)

// fixture bundles everything a Run call needs.
type fixture struct {
	q, g  *graph.Graph
	cand  [][]uint32
	space *candspace.Space
	phi   []graph.Vertex
}

func newFixture(t testing.TB, q, g *graph.Graph, fm filter.Method) *fixture {
	t.Helper()
	cand, err := filter.Run(fm, q, g)
	if err != nil {
		t.Fatalf("filter: %v", err)
	}
	// The space carries the flat block layout, as core.Preprocess builds
	// it for Intersect, so the PolicyBlock (QFilter) rows run the block
	// kernel.
	space := candspace.BuildFull(q, g, cand)
	space.MaterializeBlocks()
	return &fixture{q: q, g: g, cand: cand, space: space, phi: graph.NewBFSTree(q, 0).Order}
}

// runFresh builds an engine over the tuple and runs it once.
func runFresh(q, g *graph.Graph, cand [][]uint32, space *candspace.Space, phi []graph.Vertex, opts Options) (*Stats, error) {
	e, err := NewEngine(q, g, cand, space, phi, opts)
	if err != nil {
		return nil, err
	}
	return e.Run(), nil
}

func (f *fixture) run(t testing.TB, opts Options) *Stats {
	t.Helper()
	st, err := runFresh(f.q, f.g, f.cand, f.space, f.phi, opts)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return st
}

// eachEmbedding is a run sink that shows fn every embedding of a run in
// order, the way a per-embedding hook would see them. An embedding fn
// declines (returns false) is not taken, and stops the search.
func eachEmbedding(fn func(m []uint32) bool) func([]uint32, graph.Vertex, []uint32) int {
	return func(m []uint32, u graph.Vertex, vs []uint32) int {
		for i, v := range vs {
			m[u] = v
			if !fn(m) {
				return i
			}
		}
		return len(vs)
	}
}

func TestPaperExampleSingleMatch(t *testing.T) {
	q, g := testutil.PaperQuery(), testutil.PaperData()
	want := testutil.PaperMatch()
	for _, fm := range []filter.Method{filter.LDF, filter.NLF, filter.GQL, filter.CFL} {
		f := newFixture(t, q, g, fm)
		for _, local := range []LocalCandidates{Direct, Scan, TreeEdge, Intersect} {
			var got []uint32
			st := f.run(t, Options{Local: local, OnRun: eachEmbedding(func(m []uint32) bool {
				got = append([]uint32(nil), m...)
				return true
			})})
			if st.Embeddings != 1 {
				t.Errorf("filter %v local %v: %d embeddings, want 1", fm, local, st.Embeddings)
				continue
			}
			for u, v := range want {
				if got[u] != v {
					t.Errorf("filter %v local %v: match %v, want %v", fm, local, got, want)
					break
				}
			}
		}
	}
}

func TestTreeEdgeModeWithTreeSpace(t *testing.T) {
	q, g := testutil.PaperQuery(), testutil.PaperData()
	cand, _ := filter.Run(filter.CFL, q, g)
	tree := graph.NewBFSTree(q, 0)
	space := candspace.Build(q, g, cand, tree.Parent, nil)
	st, err := runFresh(q, g, cand, space, tree.Order, Options{Local: TreeEdge})
	if err != nil {
		t.Fatal(err)
	}
	if st.Embeddings != 1 {
		t.Errorf("tree-edge with tree space found %d embeddings, want 1", st.Embeddings)
	}
}

// An engine never reads a pair the space does not hold. A space built
// along φ keeps only its earlier→later pairs, so under the reversed
// order every backward pair (and every tree parent's pair) is absent:
// NewEngine must name one rather than search an empty adjacency and
// report 0 embeddings.
func TestEngineRejectsMissingPair(t *testing.T) {
	q, g := testutil.PaperQuery(), testutil.PaperData()
	cand, err := filter.Run(filter.CFL, q, g)
	if err != nil {
		t.Fatal(err)
	}
	phi, reversed := []graph.Vertex{0, 1, 2, 3}, []graph.Vertex{3, 2, 1, 0}
	tree := graph.NewBFSTree(q, 0).Parent // 1 and 2 under 0, 3 under 1: phi respects it
	for local, space := range map[LocalCandidates]*candspace.Space{
		Intersect: candspace.Build(q, g, cand, nil, phi),
		TreeEdge:  candspace.Build(q, g, cand, tree, phi),
	} {
		st, err := runFresh(q, g, cand, space, phi, Options{Local: local})
		if err != nil || st.Embeddings != 1 {
			t.Fatalf("%v along the build's order: %v embeddings, error %v; want 1, nil", local, st, err)
		}
		_, err = runFresh(q, g, cand, space, reversed, Options{Local: local})
		if err == nil || !strings.Contains(err.Error(), "holds no pair") {
			t.Errorf("%v along the reversed order: error %v, want one naming a missing pair", local, err)
		}
	}
}

func TestMaxEmbeddingsCap(t *testing.T) {
	// A clique-ish labeled graph with many automorphic matches.
	labels := make([]graph.Label, 8)
	var edges [][2]graph.Vertex
	for i := 0; i < 8; i++ {
		for j := i + 1; j < 8; j++ {
			edges = append(edges, [2]graph.Vertex{graph.Vertex(i), graph.Vertex(j)})
		}
	}
	g := graph.MustFromEdges(labels, edges)
	q := graph.MustFromEdges(make([]graph.Label, 3), [][2]graph.Vertex{{0, 1}, {1, 2}, {0, 2}})
	f := &fixture{q: q, g: g, cand: filter.RunLDF(q, g)}
	f.space = candspace.BuildFull(q, g, f.cand)
	f.phi = graph.NewBFSTree(q, 0).Order

	st := f.run(t, Options{Local: Intersect, MaxEmbeddings: 10})
	if st.Embeddings != 10 || !st.LimitHit {
		t.Errorf("cap: embeddings=%d limitHit=%v", st.Embeddings, st.LimitHit)
	}
	// 8*7*6 = 336 triangle embeddings without the cap.
	st = f.run(t, Options{Local: Intersect})
	if st.Embeddings != 336 {
		t.Errorf("uncapped: %d embeddings, want 336", st.Embeddings)
	}
	if !st.Solved() {
		t.Error("uncapped run should be solved")
	}
}

// TestSinkAbort: a sink that takes nothing is called once, and what it
// declined is not counted.
func TestSinkAbort(t *testing.T) {
	q, g := testutil.PaperQuery(), testutil.PaperData()
	f := newFixture(t, q, g, filter.LDF)
	calls := 0
	st := f.run(t, Options{Local: Intersect, OnRun: func(m []uint32, u graph.Vertex, vs []uint32) int {
		calls++
		return 0
	}})
	if calls != 1 || st.Embeddings != 0 || st.LimitHit {
		t.Errorf("sink abort: calls=%d embeddings=%d LimitHit=%v", calls, st.Embeddings, st.LimitHit)
	}
}

func TestTimeLimit(t *testing.T) {
	// Unlabeled dense random graph with a 6-cycle query explodes
	// combinatorially; a tiny time limit must fire.
	rng := rand.New(rand.NewSource(5))
	g := testutil.RandomGraph(rng, 400, 8000, 1)
	q := graph.MustFromEdges(make([]graph.Label, 6),
		[][2]graph.Vertex{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0}})
	cand := filter.RunLDF(q, g)
	space := candspace.BuildFull(q, g, cand)
	phi := graph.NewBFSTree(q, 0).Order
	st, err := runFresh(q, g, cand, space, phi, Options{Local: Intersect, TimeLimit: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if !st.TimedOut || st.Solved() {
		t.Errorf("expected timeout, got %+v", st)
	}
}

func TestValidationErrors(t *testing.T) {
	q, g := testutil.PaperQuery(), testutil.PaperData()
	cand := filter.RunLDF(q, g)
	space := candspace.BuildFull(q, g, cand)
	phi := graph.NewBFSTree(q, 0).Order

	cases := []struct {
		name string
		fn   func() error
	}{
		{"short order", func() error {
			_, err := runFresh(q, g, cand, space, phi[:2], Options{})
			return err
		}},
		{"bad candidates", func() error {
			_, err := runFresh(q, g, cand[:1], space, phi, Options{})
			return err
		}},
		{"missing space", func() error {
			_, err := runFresh(q, g, cand, nil, phi, Options{Local: Intersect})
			return err
		}},
		{"adaptive without intersect", func() error {
			_, err := runFresh(q, g, cand, space, phi, Options{Local: Scan, Adaptive: true})
			return err
		}},
		{"not a permutation", func() error {
			_, err := runFresh(q, g, cand, space, []graph.Vertex{0, 0, 1, 2}, Options{})
			return err
		}},
		{"disconnected prefix", func() error {
			_, err := runFresh(q, g, cand, space, []graph.Vertex{0, 3, 1, 2}, Options{})
			return err
		}},
		{"disconnected delta", func() error {
			_, err := runFresh(q, g, cand, space, []graph.Vertex{0, 3, 1, 2}, Options{Local: Intersect, Adaptive: true})
			return err
		}},
		{"VF2++ without direct", func() error {
			_, err := runFresh(q, g, cand, space, phi, Options{Local: Intersect, VF2PPRules: true})
			return err
		}},
	}
	for _, c := range cases {
		if c.fn() == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
	// Failing sets on >64 vertices.
	big := graph.NewBuilder(65, 64)
	for i := 0; i < 65; i++ {
		big.AddVertex(0)
	}
	for i := 1; i < 65; i++ {
		big.AddEdge(graph.Vertex(i-1), graph.Vertex(i))
	}
	bq := big.MustBuild()
	bcand := filter.RunLDF(bq, bq)
	bphi := graph.NewBFSTree(bq, 0).Order
	if _, err := runFresh(bq, bq, bcand, nil, bphi, Options{Local: Direct, FailingSets: true}); err == nil {
		t.Error("expected error for failing sets with >64 query vertices")
	}
}

func TestEmptyQuery(t *testing.T) {
	q := graph.MustFromEdges(nil, nil)
	st, err := runFresh(q, testutil.PaperData(), nil, nil, nil, Options{})
	if err != nil || st.Embeddings != 0 {
		t.Errorf("empty query: %v, %+v", err, st)
	}
}
