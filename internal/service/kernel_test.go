package service

import (
	"context"
	"math/rand"
	"testing"

	"subgraphmatching/internal/core"
	"subgraphmatching/internal/intersect"
	"subgraphmatching/internal/testutil"
)

// TestConfigHashSeparatesKernelPolicies: plans built under different
// kernel policies must not share cache entries — PolicyBlock plans carry
// a block layout that a pinned-merge request would drag along, and vice
// versa a merge-built plan lacks the layout an adaptive run wants.
func TestConfigHashSeparatesKernelPolicies(t *testing.T) {
	base := core.Config{}
	seen := map[uint64]intersect.Policy{}
	for _, p := range []intersect.Policy{
		intersect.PolicyAdaptive, intersect.PolicyMerge, intersect.PolicyGallop,
		intersect.PolicyHybrid, intersect.PolicyBlock,
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

// TestRequestKernelOverride: a request-level kernel override reaches
// the executed config, distinct policies get distinct plan-cache
// entries, and the service-wide kernel mix shows up in Stats.
func TestRequestKernelOverride(t *testing.T) {
	s, g := newTestService(t, Config{})
	defer s.Close()
	rng := rand.New(rand.NewSource(3))
	q := testutil.RandomConnectedQuery(rng, g, 5)
	if q == nil {
		t.Fatal("no query")
	}
	ctx := context.Background()

	var want uint64
	for i, kern := range []intersect.Policy{intersect.PolicyAdaptive, intersect.PolicyMerge, intersect.PolicyHybrid} {
		resp, err := s.Submit(ctx, Request{Graph: "main", Query: q, Algorithm: core.Optimized, Kernel: kern})
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
	}
	// Same policy again: now the plan is shared.
	resp, err := s.Submit(ctx, Request{Graph: "main", Query: q, Algorithm: core.Optimized, Kernel: intersect.PolicyMerge})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.CacheHit {
		t.Error("repeat request with the same kernel policy missed the cache")
	}

	st := s.Stats()
	if resp.Result.Kernels.Total() > 0 && len(st.Kernels) == 0 {
		t.Errorf("requests tallied kernels but Stats.Kernels is empty")
	}
	var total uint64
	for _, n := range st.Kernels {
		total += n
	}
	if resp.Result.Kernels.Total() > 0 && total == 0 {
		t.Errorf("Stats.Kernels sums to zero: %v", st.Kernels)
	}
}
