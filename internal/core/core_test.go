package core

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"subgraphmatching/internal/enumerate"
	"subgraphmatching/internal/filter"
	"subgraphmatching/internal/graph"
	"subgraphmatching/internal/order"
	"subgraphmatching/internal/testutil"
)

func TestAllPresetsOnPaperExample(t *testing.T) {
	q, g := testutil.PaperQuery(), testutil.PaperData()
	for _, a := range Algorithms() {
		cfg := PresetConfig(a, q, g)
		res, err := Match(q, g, cfg, Limits{})
		if err != nil {
			t.Fatalf("%v: %v", a, err)
		}
		if res.Embeddings != 1 {
			t.Errorf("%v: %d embeddings, want 1", a, res.Embeddings)
		}
		if !res.Solved() {
			t.Errorf("%v: not solved", a)
		}
	}
}

func TestPresetsAgreeWithBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := testutil.RandomGraph(rng, 15+rng.Intn(15), 40+rng.Intn(40), 2+rng.Intn(3))
		q := testutil.RandomConnectedQuery(rng, g, 3+rng.Intn(4))
		if q == nil {
			return true
		}
		want := testutil.BruteForceCount(q, g, 0)
		for _, a := range Algorithms() {
			res, err := Match(q, g, PresetConfig(a, q, g), Limits{})
			if err != nil {
				t.Logf("%v: %v (seed %d)", a, err, seed)
				return false
			}
			if res.Embeddings != want {
				t.Logf("%v: %d embeddings, brute force %d (seed %d)", a, res.Embeddings, want, seed)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestOrderingStudyConfigsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 10; trial++ {
		g := testutil.RandomGraph(rng, 25, 70, 3)
		q := testutil.RandomConnectedQuery(rng, g, 5)
		if q == nil {
			continue
		}
		want := testutil.BruteForceCount(q, g, 0)
		for _, om := range order.Methods() {
			for _, fs := range []bool{false, true} {
				res, err := Match(q, g, OrderingStudyConfig(om, fs), Limits{})
				if err != nil {
					t.Fatalf("order %v fs=%v: %v", om, fs, err)
				}
				if res.Embeddings != want {
					t.Fatalf("order %v fs=%v: %d embeddings, want %d", om, fs, res.Embeddings, want)
				}
			}
		}
	}
}

func TestFixedOrder(t *testing.T) {
	q, g := testutil.PaperQuery(), testutil.PaperData()
	cfg := Config{Filter: filter.GQL, Local: enumerate.Intersect,
		FixedOrder: []graph.Vertex{0, 2, 1, 3}}
	res, err := Match(q, g, cfg, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Embeddings != 1 {
		t.Errorf("fixed order: %d embeddings", res.Embeddings)
	}
	if len(res.Order) != 4 || res.Order[1] != 2 {
		t.Errorf("Result.Order = %v", res.Order)
	}
}

func TestLimitsPropagate(t *testing.T) {
	// Triangle query in a labeled clique: many embeddings.
	labels := make([]graph.Label, 9)
	var edges [][2]graph.Vertex
	for i := 0; i < 9; i++ {
		for j := i + 1; j < 9; j++ {
			edges = append(edges, [2]graph.Vertex{graph.Vertex(i), graph.Vertex(j)})
		}
	}
	g := graph.MustFromEdges(labels, edges)
	q := graph.MustFromEdges(make([]graph.Label, 3), [][2]graph.Vertex{{0, 1}, {1, 2}, {0, 2}})
	res, err := Match(q, g, PresetConfig(Optimized, q, g), Limits{MaxEmbeddings: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Embeddings != 5 || !res.LimitHit {
		t.Errorf("limit: %+v", res)
	}
	var collected [][]uint32
	_, err = Match(q, g, PresetConfig(Optimized, q, g), Limits{OnMatch: func(m []uint32) bool {
		collected = append(collected, append([]uint32(nil), m...))
		return len(collected) < 3
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(collected) != 3 {
		t.Errorf("collected %d matches", len(collected))
	}
	for _, m := range collected {
		if !testutil.IsValidEmbedding(q, g, m) {
			t.Errorf("invalid collected embedding %v", m)
		}
	}
}

func TestResultTimesAndMetrics(t *testing.T) {
	q, g := testutil.PaperQuery(), testutil.PaperData()
	res, err := Match(q, g, PresetConfig(DPIso, q, g), Limits{TimeLimit: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if res.PreprocessTime() != res.FilterTime+res.BuildTime+res.OrderTime {
		t.Error("PreprocessTime mismatch")
	}
	if res.TotalTime() < res.EnumTime {
		t.Error("TotalTime < EnumTime")
	}
	if res.MeanCandidates != 7.0/4.0 {
		t.Errorf("MeanCandidates = %v, want 1.75", res.MeanCandidates)
	}
	if res.MemoryBytes <= 0 {
		t.Error("MemoryBytes should be positive")
	}
}

func TestOptimizedAdaptsToDensityAndQuerySize(t *testing.T) {
	q, _ := testutil.PaperQuery(), testutil.PaperData()
	sparse := testutil.RandomGraph(rand.New(rand.NewSource(1)), 100, 150, 3) // d = 3
	dense := testutil.RandomGraph(rand.New(rand.NewSource(2)), 50, 600, 3)   // d = 24
	if cfg := PresetConfig(Optimized, q, sparse); cfg.Order != order.RI {
		t.Errorf("sparse graph should use RI ordering, got %v", cfg.Order)
	}
	if cfg := PresetConfig(Optimized, q, dense); cfg.Order != order.GQL {
		t.Errorf("dense graph should use GQL ordering, got %v", cfg.Order)
	}
	if cfg := PresetConfig(Optimized, q, sparse); cfg.FailingSets {
		t.Error("small query should not enable failing sets")
	}
	// Build a 12-vertex path query.
	b := graph.NewBuilder(12, 11)
	for i := 0; i < 12; i++ {
		b.AddVertex(0)
	}
	for i := 1; i < 12; i++ {
		b.AddEdge(graph.Vertex(i-1), graph.Vertex(i))
	}
	big := b.MustBuild()
	if cfg := PresetConfig(Optimized, big, sparse); !cfg.FailingSets {
		t.Error("large query should enable failing sets")
	}
}

func TestMatchValidation(t *testing.T) {
	g := testutil.PaperData()
	empty := graph.MustFromEdges(nil, nil)
	if _, err := Match(empty, g, Config{}, Limits{}); err == nil {
		t.Error("expected error for empty query")
	}
	disc := graph.MustFromEdges([]graph.Label{0, 0, 0}, [][2]graph.Vertex{{0, 1}})
	if _, err := Match(disc, g, Config{}, Limits{}); err == nil {
		t.Error("expected error for disconnected query")
	}
}

func TestEmptyCandidatesShortCircuit(t *testing.T) {
	// Query label not present in the data graph: the pipeline must
	// return zero embeddings without running the enumerator.
	q := graph.MustFromEdges([]graph.Label{9, 9, 9}, [][2]graph.Vertex{{0, 1}, {1, 2}})
	res, err := Match(q, testutil.PaperData(), PresetConfig(GraphQL, nil, nil), Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Embeddings != 0 || res.Nodes != 0 {
		t.Errorf("short circuit: %+v", res)
	}
}

func TestFilterParamOverrides(t *testing.T) {
	q, g := testutil.PaperQuery(), testutil.PaperData()
	for _, cfg := range []Config{
		{Filter: filter.GQL, Order: order.GQL, Local: enumerate.Scan, GQLRounds: 5},
		{Filter: filter.DPIso, Order: order.DPIso, Local: enumerate.Intersect, DPIsoPasses: 7},
	} {
		res, err := Match(q, g, cfg, Limits{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Embeddings != 1 {
			t.Errorf("override config %+v: %d embeddings", cfg, res.Embeddings)
		}
	}
}

func TestAlgorithmStringAndParse(t *testing.T) {
	for _, a := range Algorithms() {
		got, err := ParseAlgorithm(a.String())
		if err != nil || got != a {
			t.Errorf("ParseAlgorithm(%q) = %v, %v", a.String(), got, err)
		}
	}
	if _, err := ParseAlgorithm("nope"); err == nil {
		t.Error("expected parse error")
	}
}

func TestAutoOrderAgrees(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 10; trial++ {
		g := testutil.RandomGraph(rng, 25, 80, 3)
		q := testutil.RandomConnectedQuery(rng, g, 5)
		if q == nil {
			continue
		}
		want := testutil.BruteForceCount(q, g, 0)
		cfg := Config{Filter: filter.GQL, Local: enumerate.Intersect, AutoOrder: true, FailingSets: true}
		res, err := Match(q, g, cfg, Limits{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Embeddings != want {
			t.Fatalf("auto-order: %d embeddings, want %d", res.Embeddings, want)
		}
		if len(res.Order) != q.NumVertices() {
			t.Fatalf("auto-order returned order %v", res.Order)
		}
	}
}

// TestSinkFormsAgreeAcrossEngines: the two forms of the sink are one
// contract. For every preset — the pipeline at 1 and 3 workers, and the
// external engines, which are fed runs of one — a run sink and a
// per-embedding callback receive the same embedding multiset and the
// result counts what they took; both set is ErrTwoSinks.
func TestSinkFormsAgreeAcrossEngines(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	g := testutil.RandomGraph(rng, 40, 160, 2)
	var q *graph.Graph
	for q == nil {
		q = testutil.RandomConnectedQuery(rng, g, 4)
	}
	collect := func(into map[string]int) func(m []uint32) bool {
		return func(m []uint32) bool {
			if !testutil.IsValidEmbedding(q, g, m) {
				t.Errorf("sink received %v, not an embedding", m)
			}
			into[string(uint32SliceBytes(m))]++
			return true
		}
	}
	for _, a := range Algorithms() {
		cfg := PresetConfig(a, q, g)
		for _, workers := range []int{1, 3} {
			if workers > 1 && cfg.External() && !cfg.UseGlasgow {
				continue
			}
			perMatch, perRun := map[string]int{}, map[string]int{}
			byMatch, err := Match(q, g, cfg, Limits{Parallel: workers, OnMatch: collect(perMatch)})
			if err != nil {
				t.Fatalf("%v: %v", a, err)
			}
			seen := collect(perRun)
			byRun, err := Match(q, g, cfg, Limits{Parallel: workers, OnRun: func(m []uint32, u graph.Vertex, vs []uint32) int {
				for _, v := range vs {
					m[u] = v
					seen(m)
				}
				return len(vs)
			}})
			if err != nil {
				t.Fatalf("%v: %v", a, err)
			}
			if len(perRun) == 0 || uint64(len(perRun)) != byRun.Embeddings || byRun.Embeddings != byMatch.Embeddings {
				t.Errorf("%v workers=%d: run sink saw %d distinct embeddings, results report %d (run) and %d (per embedding)",
					a, workers, len(perRun), byRun.Embeddings, byMatch.Embeddings)
			}
			for k, n := range perRun {
				if n != 1 || perMatch[k] != 1 {
					t.Errorf("%v workers=%d: an embedding was delivered %d times to the run sink, %d to the callback", a, workers, n, perMatch[k])
					break
				}
			}
			_, err = Match(q, g, cfg, Limits{Parallel: workers,
				OnMatch: func([]uint32) bool { return true },
				OnRun:   func(_ []uint32, _ graph.Vertex, vs []uint32) int { return len(vs) }})
			if !errors.Is(err, ErrTwoSinks) {
				t.Errorf("%v workers=%d: both sinks set: err = %v, want ErrTwoSinks", a, workers, err)
			}
		}
	}
}
