package core

import (
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"subgraphmatching/internal/enumerate"
	"subgraphmatching/internal/filter"
	"subgraphmatching/internal/graph"
	"subgraphmatching/internal/order"
	"subgraphmatching/internal/testutil"
)

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
// 8-worker runs over a fixture with failing sets on, under a static GQL
// order and under the DP-iso preset's adaptive one, must always agree
// with the sequential count, and every task — a root candidate or a
// donated prefix — runs exactly once. Runs under `make race-stress`,
// where any cross-worker state leak in the deques, the sleeping
// workers, a donated prefix or the adaptive pool a task re-derives from
// its prefix trips the race detector.
func TestStressDonation(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	g := testutil.RandomGraph(rng, 120, 700, 2)
	var q *graph.Graph
	for q == nil {
		q = testutil.RandomConnectedQuery(rng, g, 5)
	}
	for _, c := range []struct {
		name string
		cfg  Config
	}{
		{"gql", Config{Filter: filter.GQL, Order: order.GQL, Local: enumerate.Intersect, FailingSets: true}},
		{"dpiso", PresetConfig(DPIso, q, g)},
	} {
		t.Run(c.name, func(t *testing.T) { stressDonation(t, q, g, c.cfg) })
	}
}

func stressDonation(t *testing.T, q, g *graph.Graph, cfg Config) {
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
