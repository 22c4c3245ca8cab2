package core

import (
	"math/rand"
	"testing"

	"subgraphmatching/internal/order"
	"subgraphmatching/internal/testutil"
)

// TestRaceOrders: a race runs once per plan, the incumbent first, and
// only on a plan whose incumbent count needs raceNodeFloor nodes or
// more; its winner searches fewer nodes than the incumbent at the
// race's limit — as many as the race counted with Within, where the
// plan counts with 𝒜 — answers every limit as the incumbent does, and
// never races again. Plans the race cannot reorder — adaptive, a fixed
// order, a method other than Intersect, empty — return nil and are left
// as they are.
func TestRaceOrders(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := testutil.RandomGraph(rng, 200, 700, 3)
	const limit = 400
	raced, switched := 0, 0
	for range 60 {
		q := testutil.RandomConnectedQuery(rng, g, 4+rng.Intn(4))
		if q == nil {
			continue
		}
		cfg := PresetConfig(Optimized, q, g)
		plan, err := Preprocess(q, g, cfg, 1)
		if err != nil {
			t.Fatal(err)
		}
		var incumbent uint64
		if !plan.Empty {
			res, err := MatchPlan(plan, Limits{MaxEmbeddings: limit})
			if err != nil {
				t.Fatal(err)
			}
			incumbent = res.Nodes
		}
		won := RaceOrders(plan, limit)
		if plan.Empty || incumbent < raceNodeFloor {
			if won != nil {
				t.Fatalf("a plan that counts in %d nodes raced (empty %v)", incumbent, plan.Empty)
			}
			continue
		}
		if won == nil {
			t.Fatalf("a plan that counts in %d nodes did not race", incumbent)
		}
		raced++
		if RaceOrders(plan, limit) != nil || RaceOrders(won, limit) != nil {
			t.Fatal("a plan raced twice")
		}
		r := won.Race
		if r.Limit != limit || r.Entries[0].Order != plan.OrderMethod || won.OrderMethod != r.Entries[r.Winner].Order {
			t.Fatalf("race %+v on a %s plan, winner %s", r, plan.OrderMethod, won.OrderMethod)
		}
		if r.Winner != 0 {
			switched++
			if r.Entries[r.Winner].Nodes >= r.Entries[0].Nodes {
				t.Fatalf("race %+v: the winner does not search fewer nodes", r)
			}
		}
		for _, k := range []uint64{0, 1, 3, limit, 500} {
			a, err := MatchPlan(plan, Limits{MaxEmbeddings: k})
			if err != nil {
				t.Fatal(err)
			}
			b, err := MatchPlan(won, Limits{MaxEmbeddings: k})
			if err != nil {
				t.Fatal(err)
			}
			if a.Embeddings != b.Embeddings || a.LimitHit != b.LimitHit {
				t.Fatalf("limit %d: incumbent %d (limit hit %v), winner %d (limit hit %v)", k, a.Embeddings, a.LimitHit, b.Embeddings, b.LimitHit)
			}
		}
		if n, err := MatchPlan(won, Limits{MaxEmbeddings: limit}); err != nil || n.Nodes != r.Entries[r.Winner].Nodes {
			t.Fatalf("the winner searches %d nodes at the race's limit, the race read %d (%v)", n.Nodes, r.Entries[r.Winner].Nodes, err)
		}
	}
	if raced == 0 || switched == 0 {
		t.Errorf("%d races, %d switched its order", raced, switched)
	}

	q := testutil.RandomConnectedQuery(rng, g, 5)
	fixed := PresetConfig(Optimized, q, g)
	phi, err := order.Compute(order.RI, q, g, nil)
	if err != nil {
		t.Fatal(err)
	}
	fixed.FixedOrder = phi
	for name, cfg := range map[string]Config{
		"DP-iso":      PresetConfig(DPIso, q, g),
		"RI":          PresetConfig(RI, q, g),
		"fixed order": fixed,
	} {
		plan, err := Preprocess(q, g, cfg, 1)
		if err != nil {
			t.Fatal(err)
		}
		if RaceOrders(plan, limit) != nil {
			t.Errorf("%s: the plan raced", name)
		}
	}
}
