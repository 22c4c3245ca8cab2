package service

import (
	"context"
	"math/rand"
	"testing"

	"subgraphmatching/internal/core"
	"subgraphmatching/internal/graph"
	"subgraphmatching/internal/intersect"
	"subgraphmatching/internal/testutil"
)

// TestConfigHashSeparatesKernelPolicies: plans built under different
// kernel policies must not share cache entries — PolicyBlock plans carry
// a block layout that any other request would drag along, and vice
// versa any other plan lacks the layout a block run reads.
func TestConfigHashSeparatesKernelPolicies(t *testing.T) {
	base := core.Config{}
	seen := map[uint64]intersect.Policy{}
	for _, p := range []intersect.Policy{
		intersect.PolicyAdaptive, intersect.PolicyMerge, intersect.PolicyGallop,
		intersect.PolicyBlock,
	} {
		cfg := base
		cfg.Kernel = p
		h := configHash(cfg)
		if prev, dup := seen[h]; dup {
			t.Fatalf("policies %v and %v share config hash %#x", prev, p, h)
		}
		seen[h] = p
	}
}

// TestRequestKernelOverride: a kernel pinned through Custom.Kernel — the
// one way a service request leaves the adaptive default — reaches the
// executed config and returns identical embeddings, distinct policies
// get distinct plan-cache entries, and the service-wide kernel mix shows
// up in Stats.
func TestRequestKernelOverride(t *testing.T) {
	s, g := newTestService(t, Config{})
	defer s.Close()
	// A cyclic query: some vertex has two backward neighbors, so the
	// intersect local actually executes pairwise kernels.
	rng := rand.New(rand.NewSource(3))
	var q *graph.Graph
	for q == nil || q.NumEdges() < q.NumVertices() {
		q = testutil.RandomConnectedQuery(rng, g, 5)
	}
	ctx := context.Background()
	pinned := func(kern intersect.Policy) Request {
		cfg := core.PresetConfig(core.Optimized, q, g)
		cfg.Kernel = kern
		return Request{Graph: "main", Query: q, Custom: &cfg}
	}

	var want uint64
	for i, kern := range []intersect.Policy{intersect.PolicyAdaptive, intersect.PolicyMerge, intersect.PolicyGallop} {
		resp, err := s.Submit(ctx, pinned(kern))
		if err != nil {
			t.Fatalf("kernel %v: %v", kern, err)
		}
		if i == 0 {
			want = resp.Result.Embeddings
		} else if resp.Result.Embeddings != want {
			t.Errorf("kernel %v: %d embeddings, want %d", kern, resp.Result.Embeddings, want)
		}
		if resp.CacheHit {
			t.Errorf("kernel %v: unexpected cache hit — policies must not share plans", kern)
		}
		if kern == intersect.PolicyMerge {
			if k := resp.Result.Kernels; k.Total() == 0 || k[intersect.KernelMerge] != k.Total() {
				t.Errorf("pinned merge ran the mix %v", k.Map())
			}
		}
	}
	// Same policy again: now the plan is shared. The preset spelled out as
	// a Custom config is not the preset's plan: a Custom tuple asks for its
	// order, and a preset plan may race its order away (core.RaceOrders),
	// so the preset builds its own plan, which its next request hits.
	preset := Request{Graph: "main", Query: q, Algorithm: core.Optimized}
	for i, req := range []Request{pinned(intersect.PolicyMerge), preset, preset} {
		resp, err := s.Submit(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if resp.CacheHit != (i != 1) {
			t.Errorf("request %d (%s): cache hit %v, want %v", i, req.algoName(), resp.CacheHit, i != 1)
		}
	}

	st := s.Stats()
	var total uint64
	for _, n := range st.Kernels {
		total += n
	}
	if total == 0 {
		t.Errorf("Stats.Kernels sums to zero after intersect requests: %v", st.Kernels)
	}
}
