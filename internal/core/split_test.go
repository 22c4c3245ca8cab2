package core

import (
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

// TestSplitEquivalence is the acceptance grid for donation: across
// engine configs (static orders and DP-iso's adaptive ordering) ×
// workers {1,2,4,8}, the runs must produce byte-identical embedding sets
// to the sequential run, and MaxEmbeddings caps must stay exact. Every
// fixture's root has few candidates for 8 workers, so idle workers meet
// running searches and the grid donates.
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
	donated := 0
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
					donated += res.Split.SplitTasks
				}
				// Exact cap under the same scheduler.
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
	if donated == 0 {
		t.Error("no run in the grid donated")
	}

	// Symmetry breaking and homomorphism: the sink sees canonical
	// embeddings and the count is theirs times the orbit, so these rows
	// compare counts with the sequential run, capped and uncapped. The
	// 4-cycle on a one-label graph has two twin pairs (orbit 4).
	cg := testutil.RandomGraph(rng, 30, 120, 1)
	cycle := graph.MustFromEdges(make([]graph.Label, 4), [][2]graph.Vertex{{0, 1}, {1, 2}, {2, 3}, {3, 0}})
	workloads = append(workloads, workload{"cycle4", cycle, cg})
	symmetric := false
	for _, wl := range workloads {
		for _, cfg := range []Config{
			{Filter: filter.GQL, Order: order.GQL, Local: enumerate.Intersect, SymmetryBreaking: true},
			{Filter: filter.GQL, Order: order.GQL, Local: enumerate.Intersect, SymmetryBreaking: true, FailingSets: true},
			{Local: enumerate.Intersect, Order: order.GQL, Homomorphism: true},
			{Local: enumerate.Direct, Order: order.RI, Homomorphism: true},
		} {
			plan, err := Preprocess(wl.q, wl.g, cfg, 1)
			if err != nil {
				t.Fatal(err)
			}
			symmetric = symmetric || plan.Orbit > 1
			for _, cap := range []uint64{0, 5} {
				want, err := Match(wl.q, wl.g, cfg, Limits{MaxEmbeddings: cap})
				if err != nil {
					t.Fatal(err)
				}
				if cap > 0 && want.LimitHit && want.Embeddings != cap*plan.Orbit {
					t.Fatalf("%s sym=%v hom=%v: sequential cap run found %d, want %d×%d",
						wl.name, cfg.SymmetryBreaking, cfg.Homomorphism, want.Embeddings, cap, plan.Orbit)
				}
				for _, workers := range []int{2, 4} {
					got, err := Match(wl.q, wl.g, cfg, Limits{Parallel: workers, MaxEmbeddings: cap})
					if err != nil {
						t.Fatal(err)
					}
					if got.Embeddings != want.Embeddings || got.LimitHit != want.LimitHit {
						t.Errorf("%s sym=%v hom=%v cap=%d w%d: %d embeddings (limit hit %v), sequential %d (%v)",
							wl.name, cfg.SymmetryBreaking, cfg.Homomorphism, cap, workers,
							got.Embeddings, got.LimitHit, want.Embeddings, want.LimitHit)
					}
				}
			}
		}
	}
	if !symmetric {
		t.Error("no workload in the grid has a symmetry orbit above 1")
	}
}

// TestParallelCancelDuringProbe: a parallel run stopped before it
// starts does no search — a cancel flag set before submission means 0
// nodes, and a deadline already expired surfaces as TimedOut — though
// the engines poll both only every few thousand nodes.
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
	if res.Nodes != 0 || res.Embeddings != 0 {
		t.Errorf("pre-cancelled run did work: %d nodes, %d embeddings", res.Nodes, res.Embeddings)
	}

	res, err = Match(q, g, cfg, Limits{Parallel: 4, TimeLimit: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	if !res.TimedOut {
		t.Error("pre-expired deadline not reported as TimedOut")
	}
	if res.Nodes != 0 {
		t.Errorf("expired-deadline run did work: %d nodes", res.Nodes)
	}
}

// TestStressDonation hammers donation under contention: repeated
// 8-worker runs over a fixture with failing sets on must always agree
// with the sequential count, and every task — a root candidate or a
// donated prefix — runs exactly once. Runs under `make race-stress`,
// where any cross-worker state leak in the deques, the sleeping workers
// or a donated prefix trips the race detector.
func TestStressDonation(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	g := testutil.RandomGraph(rng, 120, 700, 2)
	var q *graph.Graph
	for q == nil {
		q = testutil.RandomConnectedQuery(rng, g, 5)
	}
	cfg := Config{Filter: filter.GQL, Order: order.GQL, Local: enumerate.Intersect, FailingSets: true}
	plan, err := Preprocess(q, g, cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := MatchPlan(plan, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	iters := 50
	if testing.Short() {
		iters = 10
	}
	roots := len(plan.Cand[plan.Order[0]])
	donated := 0
	for i := 0; i < iters; i++ {
		res, err := MatchPlan(plan, Limits{Parallel: 8})
		if err != nil {
			t.Fatal(err)
		}
		if res.Embeddings != seq.Embeddings {
			t.Fatalf("iter %d: %d embeddings, want %d", i, res.Embeddings, seq.Embeddings)
		}
		s := res.Split
		var tasks uint64
		for _, ws := range res.Workers {
			tasks += ws.Tasks
		}
		if s.Tasks != roots+s.SplitTasks || tasks != uint64(s.Tasks) {
			t.Fatalf("iter %d: %d roots, pool %+v, workers ran %d tasks", i, roots, s, tasks)
		}
		donated += s.SplitTasks
	}
	if donated == 0 {
		t.Errorf("%d runs at 8 workers donated nothing", iters)
	}
}
