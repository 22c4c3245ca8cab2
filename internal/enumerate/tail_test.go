package enumerate

import (
	"testing"

	"subgraphmatching/internal/filter"
)

// TestCountTailMatchesTheLoop: with the counted tail on, a run with no
// sink counts what the loop enumerates — uncapped and at caps that stop
// inside a tail — for every local-candidate method, failing sets,
// symmetry classes and homomorphism, and searches no more nodes; a run
// with a sink is left to the loop, node for node. Adaptive orders and
// VF2++ rules have no tail and search as they did.
func TestCountTailMatchesTheLoop(t *testing.T) {
	g, queries := leafFixture(t)
	fewer := 0
	for _, lq := range queries {
		f := newFixture(t, lq.q, g, filter.LDF)
		for _, c := range leafConfigs() {
			for _, v := range leafVariants {
				loop, ok := c.variant(v, lq)
				if !ok {
					continue
				}
				name := lq.name + "/" + c.name + "/" + v
				tail := loop
				tail.CountTail = true
				want := f.run(t, loop)
				got := f.run(t, tail)
				if got.Embeddings != want.Embeddings || got.Nodes > want.Nodes {
					t.Fatalf("%s: counted tail %d embeddings in %d nodes, the loop %d in %d",
						name, got.Embeddings, got.Nodes, want.Embeddings, want.Nodes)
				}
				if got.Nodes < want.Nodes {
					fewer++
				}
				if (loop.Adaptive || loop.VF2PPRules) && got.Nodes != want.Nodes {
					t.Fatalf("%s: %d nodes with a tail that must not count, %d without", name, got.Nodes, want.Nodes)
				}
				for _, k := range []uint64{1, 7, want.Embeddings / 2} {
					if k == 0 || k >= want.Embeddings {
						continue
					}
					tail.MaxEmbeddings = k
					if st := f.run(t, tail); st.Embeddings != k || !st.LimitHit {
						t.Fatalf("%s: cap %d: %d embeddings, limit hit %v", name, k, st.Embeddings, st.LimitHit)
					}
				}
				tail.MaxEmbeddings = 0
				loop.OnRun = eachEmbedding(func([]uint32) bool { return true })
				tail.OnRun = loop.OnRun
				if a, b := f.run(t, loop), f.run(t, tail); a.Nodes != b.Nodes || a.Embeddings != b.Embeddings {
					t.Fatalf("%s: with a sink, %d/%d nodes/embeddings with the tail on, %d/%d off",
						name, b.Nodes, b.Embeddings, a.Nodes, a.Embeddings)
				}
			}
		}
	}
	if fewer == 0 {
		t.Error("no run counted a tail")
	}
}

// TestMaxNodesStopsAtThePoll: a node budget stops the search at the
// poll where it runs out — within one leaf run of it — and says so; a
// budget past the search lets the run finish.
func TestMaxNodesStopsAtThePoll(t *testing.T) {
	f := stopFixture(t)
	full := f.run(t, Options{Local: Intersect})
	if full.OverBudget || full.Nodes < 4*timeCheckInterval {
		t.Fatalf("fixture: %d nodes, over budget %v; want a search past a few polls", full.Nodes, full.OverBudget)
	}
	for _, b := range []uint64{1, 100, timeCheckInterval + 100} {
		st := f.run(t, Options{Local: Intersect, MaxNodes: b})
		// A leaf run in the 80-vertex graph is under 80 vertices.
		if !st.OverBudget || st.Nodes < b || st.Nodes >= b+80 || st.Embeddings >= full.Embeddings {
			t.Fatalf("budget %d: %d nodes, %d embeddings, over budget %v", b, st.Nodes, st.Embeddings, st.OverBudget)
		}
	}
	var st *Stats
	st = f.run(t, Options{Local: Intersect, MaxNodes: full.Nodes + 1})
	if st.OverBudget || st.Nodes != full.Nodes {
		t.Fatalf("budget past the search: %d nodes, over budget %v", st.Nodes, st.OverBudget)
	}
}
