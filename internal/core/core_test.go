package core

import (
	"errors"
	"math/rand"
	"strings"
	"testing"
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
	// The space is built along the order, so a fixed order that is no
	// matching order is refused before the build reads it.
	for _, phi := range [][]graph.Vertex{{0, 0, 1, 2}, {0, 1, 2, 9}, {0, 1}} {
		cfg.FixedOrder = phi
		if _, err := Preprocess(q, g, cfg, 1); err == nil {
			t.Errorf("fixed order %v: Preprocess succeeded", phi)
		}
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

// TestDeclinedEmbeddingCountsNowhere: a sink that declines the third
// embedding stops the search with two counted, on every preset — the
// framework's and the three engines' — sequentially and at 4 workers.
func TestDeclinedEmbeddingCountsNowhere(t *testing.T) {
	q, g := engineFixture(t)
	for _, a := range Algorithms() {
		for _, workers := range []int{1, 4} {
			calls := 0
			res, err := Match(q, g, PresetConfig(a, q, g), Limits{Parallel: workers, OnMatch: func([]uint32) bool {
				calls++
				return calls < 3
			}})
			if err != nil {
				t.Fatalf("%v at %d workers: %v", a, workers, err)
			}
			if res.Embeddings != 2 {
				t.Errorf("%v at %d workers: a sink that declined the third embedding reports %d, want 2", a, workers, res.Embeddings)
			}
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

// TestVF2PPRulesRequireDirect: VF2++'s cutoff filters Direct's local
// candidates only, so Preprocess refuses it with any other method —
// before filtering, so even a query no data vertex can match is refused
// — and accepts it with Direct.
func TestVF2PPRulesRequireDirect(t *testing.T) {
	q, g := testutil.PaperQuery(), testutil.PaperData()
	absent := graph.MustFromEdges([]graph.Label{9, 9}, [][2]graph.Vertex{{0, 1}})
	for _, l := range []enumerate.LocalCandidates{enumerate.Scan, enumerate.TreeEdge, enumerate.Intersect} {
		cfg := Config{Filter: filter.GQL, Order: order.GQL, Local: l, VF2PPRules: true}
		for _, query := range []*graph.Graph{q, absent} {
			if _, err := Preprocess(query, g, cfg, 1); err == nil {
				t.Errorf("%v: VF2++ rules accepted", l)
			}
		}
	}
	if _, err := Match(q, g, PresetConfig(VF2PP, q, g), Limits{}); err != nil {
		t.Errorf("VF2++ preset: %v", err)
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

// pathGraph is a path of n vertices, all labelled 0.
func pathGraph(n int) *graph.Graph {
	b := graph.NewBuilder(n, n-1)
	for i := 0; i < n; i++ {
		b.AddVertex(0)
	}
	for i := 1; i < n; i++ {
		b.AddEdge(graph.Vertex(i-1), graph.Vertex(i))
	}
	return b.MustBuild()
}

// TestPresetsRunPastSixtyFourVertices: a 70-vertex path against a
// 300-vertex path has (300−70+1)·2 = 462 embeddings. The Optimized and
// DP-iso presets, which turn failing sets on for large queries, leave
// them off past the 64 vertices a failing set can hold, say so in the
// EXPLAIN, and answer what the same tuple with failing sets off
// answers; a plan that runs without them for another reason gets no
// such note. The tuples that break a constraint are refused by Preprocess
// with the typed error that names it, before any filtering, and by
// NewEngine with the same error.
func TestPresetsRunPastSixtyFourVertices(t *testing.T) {
	q, g := pathGraph(70), pathGraph(300)
	for _, a := range []Algorithm{Optimized, DPIso} {
		cfg := PresetConfig(a, q, g)
		if cfg.FailingSets {
			t.Fatalf("%v: failing sets on for a 70-vertex query", a)
		}
		if !PresetConfig(a, pathGraph(64), g).FailingSets {
			t.Fatalf("%v: failing sets off for a 64-vertex query", a)
		}
		plan, err := Preprocess(q, g, cfg, 1)
		if err != nil {
			t.Fatalf("%v: %v", a, err)
		}
		if note := ExplainPlan(plan).FailingSets; !strings.Contains(note, "70 vertices") {
			t.Errorf("%v: EXPLAIN says %q about failing sets, want why they are off", a, note)
		}
		res, err := MatchPlan(plan, Limits{})
		if err != nil || res.Embeddings != 462 {
			t.Fatalf("%v: %v embeddings, err %v; want 462", a, res, err)
		}
		off := cfg
		off.FailingSets = false
		if ref, err := Match(q, g, off, Limits{}); err != nil || ref.Embeddings != res.Embeddings {
			t.Fatalf("%v with failing sets off: %v, %v; the preset found %d", a, ref, err, res.Embeddings)
		}
	}
	// Failing sets off for another reason earns no note: a preset that
	// never turns them on, and a Custom tuple that is not a capping
	// preset's.
	custom := PresetConfig(DPIso, q, g)
	custom.Filter = filter.GQL
	for _, cfg := range []Config{PresetConfig(GraphQL, q, g), custom} {
		plan, err := Preprocess(q, g, cfg, 1)
		if err != nil {
			t.Fatalf("%+v: %v", cfg, err)
		}
		if note := ExplainPlan(plan).FailingSets; note != "" {
			t.Errorf("%+v: EXPLAIN says %q about failing sets, want nothing", cfg, note)
		}
	}
	dpScan := PresetConfig(DPIso, q, g)
	dpScan.Local = enumerate.Scan
	optFS := PresetConfig(Optimized, q, g)
	optFS.FailingSets = true
	for _, c := range []struct {
		cfg        Config
		constraint string
	}{
		{optFS, "failing sets support at most 64 query vertices"},
		{dpScan, "adaptive ordering requires intersection-based local candidates"},
		{Config{Filter: filter.LDF, Order: order.RI, Local: enumerate.Intersect, VF2PPRules: true}, "VF2++ rules require direct local candidates"},
		{Config{Filter: filter.LDF, Order: order.RI, Local: enumerate.Direct, Homomorphism: true, SymmetryBreaking: true}, "homomorphism mode is incompatible with symmetry breaking"},
	} {
		_, err := Preprocess(q, g, c.cfg, 1)
		if !errors.Is(err, enumerate.ErrUnsupported) || !strings.Contains(err.Error(), c.constraint) {
			t.Errorf("Preprocess(%+v) = %v, want ErrUnsupported naming %q", c.cfg, err, c.constraint)
		}
	}
	cand := filter.RunLDF(q, g)
	phi := graph.NewBFSTree(q, 0).Order
	if _, err := enumerate.NewEngine(q, g, cand, nil, phi, enumerate.Options{Local: enumerate.Direct, FailingSets: true}); !errors.Is(err, enumerate.ErrUnsupported) {
		t.Errorf("NewEngine with failing sets over 70 vertices: %v, want ErrUnsupported", err)
	}
}
