package enumerate

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"subgraphmatching/internal/candspace"
	"subgraphmatching/internal/filter"
	"subgraphmatching/internal/graph"
	"subgraphmatching/internal/order"
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
	return &fixture{
		q: q, g: g, cand: cand,
		space: candspace.BuildFull(q, g, cand),
		phi:   graph.NewBFSTree(q, 0).Order,
	}
}

func (f *fixture) run(t testing.TB, opts Options) *Stats {
	t.Helper()
	st, err := Run(f.q, f.g, f.cand, f.space, f.phi, opts)
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
		for _, local := range []LocalCandidates{Direct, Scan, TreeEdge, Intersect, IntersectBlock} {
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
	space, _ := candspace.Build(q, g, cand, tree.Parent, 1)
	st, err := Run(q, g, cand, space, tree.Order, Options{Local: TreeEdge})
	if err != nil {
		t.Fatal(err)
	}
	if st.Embeddings != 1 {
		t.Errorf("tree-edge with tree space found %d embeddings, want 1", st.Embeddings)
	}
}

// TestAgreementProperty is the central end-to-end invariant: every
// combination of local-candidate method, failing sets, and adaptive
// ordering must count exactly the same embeddings as brute force, on
// randomized graphs and queries, with every match valid.
func TestAgreementProperty(t *testing.T) {
	type config struct {
		name string
		opts Options
	}
	configs := []config{
		{"direct", Options{Local: Direct}},
		{"direct+vf2pp", Options{Local: Direct, VF2PPRules: true}},
		{"scan", Options{Local: Scan}},
		{"tree-edge", Options{Local: TreeEdge}},
		{"intersect", Options{Local: Intersect}},
		{"intersect-block", Options{Local: IntersectBlock}},
		{"intersect+fs", Options{Local: Intersect, FailingSets: true}},
		{"scan+fs", Options{Local: Scan, FailingSets: true}},
		{"direct+fs", Options{Local: Direct, FailingSets: true}},
		{"adaptive", Options{Local: Intersect, Adaptive: true}},
		{"adaptive+fs", Options{Local: Intersect, Adaptive: true, FailingSets: true}},
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := testutil.RandomGraph(rng, 12+rng.Intn(18), 30+rng.Intn(40), 2+rng.Intn(3))
		q := testutil.RandomConnectedQuery(rng, g, 3+rng.Intn(4))
		if q == nil {
			return true
		}
		want := testutil.BruteForceCount(q, g, 0)
		for _, fm := range []filter.Method{filter.LDF, filter.GQL, filter.CECI, filter.DPIso} {
			cand, err := filter.Run(fm, q, g)
			if err != nil {
				t.Logf("filter %v: %v", fm, err)
				return false
			}
			space := candspace.BuildFull(q, g, cand)
			for _, om := range []order.Method{order.GQL, order.RI, order.CFL} {
				phi, err := order.Compute(om, q, g, cand)
				if err != nil {
					t.Logf("order %v: %v", om, err)
					return false
				}
				for _, cfg := range configs {
					opts := cfg.opts
					valid := true
					opts.OnRun = eachEmbedding(func(m []uint32) bool {
						if !testutil.IsValidEmbedding(q, g, m) {
							valid = false
							return false
						}
						return true
					})
					st, err := Run(q, g, cand, space, phi, opts)
					if err != nil {
						t.Logf("run %s: %v", cfg.name, err)
						return false
					}
					if !valid {
						t.Logf("%s with filter %v order %v produced an invalid embedding", cfg.name, fm, om)
						return false
					}
					if st.Embeddings != want {
						t.Logf("%s with filter %v order %v: %d embeddings, brute force %d (seed %d)",
							cfg.name, fm, om, st.Embeddings, want, seed)
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestAdaptiveWithWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	for trial := 0; trial < 15; trial++ {
		g := testutil.RandomGraph(rng, 20, 60, 3)
		q := testutil.RandomConnectedQuery(rng, g, 5)
		if q == nil {
			continue
		}
		cand, _ := filter.Run(filter.DPIso, q, g)
		space := candspace.BuildFull(q, g, cand)
		delta := order.ComputeDPIso(q, g, 1)
		weights := order.BuildDPWeights(q, space, delta, 1)
		want := testutil.BruteForceCount(q, g, 0)
		st, err := Run(q, g, cand, space, delta, Options{
			Local: Intersect, Adaptive: true, AdaptiveWeights: weights, FailingSets: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if st.Embeddings != want {
			t.Fatalf("adaptive+weights: %d embeddings, want %d", st.Embeddings, want)
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
	st, err := Run(q, g, cand, space, phi, Options{Local: Intersect, TimeLimit: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if !st.TimedOut || st.Solved() {
		t.Errorf("expected timeout, got %+v", st)
	}
}

func TestFailingSetsNeverChangeCounts(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := testutil.RandomGraph(rng, 15+rng.Intn(15), 40+rng.Intn(40), 2)
		q := testutil.RandomConnectedQuery(rng, g, 4+rng.Intn(3))
		if q == nil {
			return true
		}
		cand, _ := filter.Run(filter.GQL, q, g)
		space := candspace.BuildFull(q, g, cand)
		phi, _ := order.Compute(order.GQL, q, g, cand)
		a, err1 := Run(q, g, cand, space, phi, Options{Local: Intersect})
		b, err2 := Run(q, g, cand, space, phi, Options{Local: Intersect, FailingSets: true})
		if err1 != nil || err2 != nil {
			return false
		}
		if a.Embeddings != b.Embeddings {
			t.Logf("failing sets changed count: %d vs %d (seed %d)", a.Embeddings, b.Embeddings, seed)
			return false
		}
		return b.Nodes <= a.Nodes // pruning must never explore more nodes
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
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
			_, err := Run(q, g, cand, space, phi[:2], Options{})
			return err
		}},
		{"bad candidates", func() error {
			_, err := Run(q, g, cand[:1], space, phi, Options{})
			return err
		}},
		{"missing space", func() error {
			_, err := Run(q, g, cand, nil, phi, Options{Local: Intersect})
			return err
		}},
		{"adaptive without intersect", func() error {
			_, err := Run(q, g, cand, space, phi, Options{Local: Scan, Adaptive: true})
			return err
		}},
		{"not a permutation", func() error {
			_, err := Run(q, g, cand, space, []graph.Vertex{0, 0, 1, 2}, Options{})
			return err
		}},
		{"disconnected prefix", func() error {
			_, err := Run(q, g, cand, space, []graph.Vertex{0, 3, 1, 2}, Options{})
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
	if _, err := Run(bq, bq, bcand, nil, bphi, Options{Local: Direct, FailingSets: true}); err == nil {
		t.Error("expected error for failing sets with >64 query vertices")
	}
}

func TestEmptyQuery(t *testing.T) {
	q := graph.MustFromEdges(nil, nil)
	st, err := Run(q, testutil.PaperData(), nil, nil, nil, Options{})
	if err != nil || st.Embeddings != 0 {
		t.Errorf("empty query: %v, %+v", err, st)
	}
}
