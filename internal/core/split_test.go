package core

import (
	"math"
	"math/rand"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"subgraphmatching/internal/enumerate"
	"subgraphmatching/internal/filter"
	"subgraphmatching/internal/graph"
	"subgraphmatching/internal/order"
	"subgraphmatching/internal/testutil"
)

// collectSorted runs Match with an embedding collector and returns the
// byte-serialized embeddings in sorted order — the canonical form for
// comparing the exact embedding *sets* two schedules produce, not just
// their counts.
func collectSorted(t *testing.T, q, g *graph.Graph, cfg Config, limits Limits) ([]string, *Result) {
	t.Helper()
	var out []string
	limits.OnMatch = func(m []uint32) bool {
		out = append(out, string(uint32SliceBytes(m)))
		return true
	}
	res, err := Match(q, g, cfg, limits)
	if err != nil {
		t.Fatal(err)
	}
	if uint64(len(out)) != res.Embeddings {
		t.Fatalf("collected %d embeddings, result reports %d", len(out), res.Embeddings)
	}
	sort.Strings(out)
	return out, res
}

// TestSplitEquivalence is the acceptance grid for the cost-model
// splitter: across engine configs (static orders and DP-iso's adaptive
// ordering) × workers {1,2,4,8}, the split pool must produce
// byte-identical embedding sets to the sequential run, and MaxEmbeddings
// caps must stay exact. Every fixture's root has fewer than 32
// candidates per worker, so each parallel run is in the split regime.
func TestSplitEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	type workload struct {
		name string
		q, g *graph.Graph
	}
	workloads := []workload{{"paper", testutil.PaperQuery(), testutil.PaperData()}}
	for len(workloads) < 3 {
		g := testutil.RandomGraph(rng, 40+rng.Intn(20), 140+rng.Intn(60), 2)
		q := testutil.RandomConnectedQuery(rng, g, 4+rng.Intn(2))
		if q != nil {
			workloads = append(workloads, workload{"rand", q, g})
		}
	}
	for _, wl := range workloads {
		configs := equivalenceConfigs()
		// DP-iso's adaptive ordering exercises the second-vertex split.
		adaptive := PresetConfig(DPIso, wl.q, wl.g)
		configs = append(configs, adaptive)
		for _, cfg := range configs {
			want, seq := collectSorted(t, wl.q, wl.g, cfg, Limits{})
			for _, workers := range []int{1, 2, 4, 8} {
				limits := Limits{Parallel: workers}
				got, res := collectSorted(t, wl.q, wl.g, cfg, limits)
				if len(got) != len(want) {
					t.Fatalf("%s adaptive=%v w%d: %d embeddings, want %d",
						wl.name, cfg.Adaptive, workers, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("%s adaptive=%v w%d: embedding sets differ at %d",
							wl.name, cfg.Adaptive, workers, i)
					}
				}
				if workers > 1 && seq.Nodes > 0 {
					if res.Split == nil {
						t.Fatalf("%s w%d: parallel run has no SplitInfo", wl.name, workers)
					}
					if res.Split.Probes == 0 {
						t.Errorf("%s adaptive=%v w%d: fixture did not reach the split regime", wl.name, cfg.Adaptive, workers)
					}
				}
				// Exact cap under the same split schedule.
				cap := uint64(5)
				if uint64(len(want)) > cap {
					limits.MaxEmbeddings = cap
					capped, err := Match(wl.q, wl.g, cfg, limits)
					if err != nil {
						t.Fatal(err)
					}
					if capped.Embeddings != cap {
						t.Errorf("%s adaptive=%v w%d: cap run found %d, want exactly %d",
							wl.name, cfg.Adaptive, workers, capped.Embeddings, cap)
					}
				}
			}
		}
	}
}

// TestSplitPredictionSurfaced: the cost model's estimate is published on
// the result (and through EXPLAIN) so predictions are checkable against
// measured nodes.
func TestSplitPredictionSurfaced(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	g := testutil.RandomGraph(rng, 40, 140, 2)
	var q *graph.Graph
	for q == nil {
		q = testutil.RandomConnectedQuery(rng, g, 5)
	}
	cfg := Config{Filter: filter.GQL, Order: order.GQL, Local: enumerate.Intersect}
	res, err := Match(q, g, cfg, Limits{Parallel: 4, Profile: true})
	if err != nil {
		t.Fatal(err)
	}
	s := res.Split
	if s == nil {
		t.Fatal("no SplitInfo on a parallel run")
	}
	if s.Probes == 0 || s.PredictedNodes == 0 {
		t.Fatalf("cost-model split ran without probes (%d) or prediction (%d)", s.Probes, s.PredictedNodes)
	}
	if res.Explain == nil || res.Explain.Split == nil {
		t.Fatal("EXPLAIN carries no split profile")
	}
	sp := res.Explain.Split
	if sp.PredictedNodes != s.PredictedNodes || sp.Probes != s.Probes {
		t.Errorf("explain split (%d pred, %d probes) disagrees with result (%d, %d)",
			sp.PredictedNodes, sp.Probes, s.PredictedNodes, s.Probes)
	}
	if sp.MeasuredNodes != res.Nodes-s.Probes {
		t.Errorf("measured nodes %d, want %d", sp.MeasuredNodes, res.Nodes-s.Probes)
	}
}

// TestParallelCancelDuringProbe is the regression test for the probe
// engine running uncancellable ahead of the workers: a cancel flag set
// before submission must stop the splitter before any probe expansion,
// and a pre-expired deadline must surface as TimedOut instead of letting
// the probe run unbounded.
func TestParallelCancelDuringProbe(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := testutil.RandomGraph(rng, 100, 500, 2)
	var q *graph.Graph
	for q == nil {
		q = testutil.RandomConnectedQuery(rng, g, 5)
	}
	cfg := Config{Filter: filter.GQL, Order: order.GQL, Local: enumerate.Intersect}

	var stop atomic.Bool
	stop.Store(true)
	res, err := Match(q, g, cfg, Limits{Parallel: 4, Cancel: &stop})
	if err != nil {
		t.Fatal(err)
	}
	if res.Split == nil {
		t.Fatal("no SplitInfo")
	}
	if res.Split.Probes != 0 {
		t.Errorf("pre-cancelled run still probed %d times", res.Split.Probes)
	}
	if res.Nodes != 0 || res.Embeddings != 0 {
		t.Errorf("pre-cancelled run did work: %d nodes, %d embeddings", res.Nodes, res.Embeddings)
	}

	// A deadline that expires before the probe starts must stop it and
	// report the timeout (previously the probe ran before SetDeadline).
	res, err = Match(q, g, cfg, Limits{Parallel: 4, TimeLimit: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	if !res.TimedOut {
		t.Error("pre-expired deadline not reported as TimedOut")
	}
	if res.Split.Probes != 0 {
		t.Errorf("expired-deadline run still probed %d times", res.Split.Probes)
	}
}

// TestSplitRegimeBoundary pins when the pool is refined: exactly while
// the root has fewer than workers×splitFactor candidates. The fixture is
// a 3-path query over a cycle (every vertex a light root) plus one hub
// with 40 pendant leaves (the heavy root, and no root candidates of
// their own), so the root list is the cycle length plus one.
func TestSplitRegimeBoundary(t *testing.T) {
	const workers = 2
	q := graph.MustFromEdges(make([]graph.Label, 3), [][2]graph.Vertex{{0, 1}, {1, 2}})
	cfg := Config{Filter: filter.LDF, Order: order.GQL, Local: enumerate.Intersect}
	run := func(roots int) *SplitInfo {
		cycle := roots - 1
		var edges [][2]graph.Vertex
		for i := 0; i < cycle; i++ {
			edges = append(edges, [2]graph.Vertex{graph.Vertex(i), graph.Vertex((i + 1) % cycle)})
		}
		hub := graph.Vertex(cycle)
		for leaf := cycle + 1; leaf <= cycle+40; leaf++ {
			edges = append(edges, [2]graph.Vertex{hub, graph.Vertex(leaf)})
		}
		g := graph.MustFromEdges(make([]graph.Label, cycle+41), edges)
		plan, err := Preprocess(q, g, cfg, 1)
		if err != nil {
			t.Fatal(err)
		}
		if got := len(plan.Cand[plan.Order[0]]); got != roots {
			t.Fatalf("fixture: %d root candidates, want %d", got, roots)
		}
		res, err := MatchPlan(plan, Limits{Parallel: workers})
		if err != nil {
			t.Fatal(err)
		}
		// 2 per cycle vertex, 40×39 through the hub.
		if want := uint64(2*(roots-1) + 40*39); res.Embeddings != want {
			t.Fatalf("%d roots: %d embeddings, want %d", roots, res.Embeddings, want)
		}
		return res.Split
	}

	if s := run(workers * splitFactor); s.Tasks != workers*splitFactor || s.SplitTasks != 0 || s.MaxPrefix != 1 ||
		s.Probes != 0 || s.PredictedNodes != 0 {
		t.Errorf("at the boundary the pool must be root-grained and unprobed, got %+v", s)
	}
	if s := run(workers*splitFactor - 1); s.Probes < uint64(workers*splitFactor-1) || s.SplitTasks != 40 ||
		s.MaxPrefix != 2 || s.PredictedNodes == 0 {
		t.Errorf("one below the boundary every root is probed and the hub split on its 40 leaves, got %+v", s)
	}
}

// TestStressRecursiveSplit hammers the recursive splitter under
// contention: repeated 8-worker runs over a skew-prone fixture (120
// data vertices, so every run is in the split regime) must always agree
// with the sequential count. Runs under `make race-stress` where any
// cross-task state leak in prefix handling trips the race detector.
func TestStressRecursiveSplit(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	g := testutil.RandomGraph(rng, 120, 700, 2)
	var q *graph.Graph
	for q == nil {
		q = testutil.RandomConnectedQuery(rng, g, 5)
	}
	cfg := Config{Filter: filter.GQL, Order: order.GQL, Local: enumerate.Intersect, FailingSets: true}
	seq, err := Match(q, g, cfg, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	iters := 50
	if testing.Short() {
		iters = 10
	}
	for i := 0; i < iters; i++ {
		res, err := Match(q, g, cfg, Limits{Parallel: 8})
		if err != nil {
			t.Fatal(err)
		}
		if res.Embeddings != seq.Embeddings {
			t.Fatalf("iter %d: %d embeddings, want %d", i, res.Embeddings, seq.Embeddings)
		}
		if res.Split == nil || res.Split.Tasks == 0 || res.Split.Probes == 0 {
			t.Fatalf("iter %d: no split accounting: %+v", i, res.Split)
		}
	}
}

// FuzzSplitEstimates drives the cost model and the recursive splitter
// over random workloads: estimates must stay finite and well-formed, and
// the cost-model split (at most 69 data vertices against 4×32) must
// enumerate exactly the sequential
// embedding multiset (the split tasks partition the search space).
func FuzzSplitEstimates(f *testing.F) {
	f.Add(int64(1), uint8(30), uint8(90), uint8(2), uint8(4))
	f.Add(int64(7), uint8(50), uint8(200), uint8(1), uint8(5))
	f.Add(int64(42), uint8(10), uint8(255), uint8(3), uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, nv, ne, nl, qn uint8) {
		rng := rand.New(rand.NewSource(seed))
		V := 10 + int(nv)%60
		E := V + int(ne)
		L := 1 + int(nl)%4
		QN := 3 + int(qn)%4
		g := testutil.RandomGraph(rng, V, E, L)
		q := testutil.RandomConnectedQuery(rng, g, QN)
		if q == nil {
			t.Skip("no connected query")
		}
		cfg := Config{Filter: filter.GQL, Order: order.GQL, Local: enumerate.Intersect}
		plan, err := Preprocess(q, g, cfg, 1)
		if err != nil {
			t.Fatal(err)
		}
		if plan.Empty {
			t.Skip("empty candidate set")
		}
		est := newSplitEstimator(q, g, plan.Cand, plan.Space, plan.Order)
		for d, b := range est.branch {
			if math.IsNaN(b) || b < 0 {
				t.Fatalf("branch[%d] = %v", d, b)
			}
		}
		for d, s := range est.subtree {
			if math.IsNaN(s) || s < 1 {
				t.Fatalf("subtree[%d] = %v", d, s)
			}
		}

		var want []string
		_, err = MatchPlan(plan, Limits{OnMatch: func(m []uint32) bool {
			want = append(want, string(uint32SliceBytes(m)))
			return true
		}})
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		res, err := MatchPlan(plan, Limits{Parallel: 4,
			OnMatch: func(m []uint32) bool {
				got = append(got, string(uint32SliceBytes(m)))
				return true
			}})
		if err != nil {
			t.Fatal(err)
		}
		sort.Strings(want)
		sort.Strings(got)
		if len(got) != len(want) {
			t.Fatalf("split run found %d embeddings, sequential %d", len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("embedding multisets differ at %d", i)
			}
		}
		if res.Split != nil && res.Split.PredictedNodes > 0 && res.Nodes < res.Split.Probes {
			t.Fatalf("nodes %d below probe count %d", res.Nodes, res.Split.Probes)
		}
	})
}
