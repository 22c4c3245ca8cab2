package core

import (
	"math/rand"
	"testing"

	"subgraphmatching/internal/enumerate"
	"subgraphmatching/internal/filter"
	"subgraphmatching/internal/intersect"
	"subgraphmatching/internal/order"
	"subgraphmatching/internal/testutil"
)

func kernelPolicies() []intersect.Policy {
	return []intersect.Policy{
		intersect.PolicyAdaptive, intersect.PolicyMerge, intersect.PolicyGallop,
		intersect.PolicyBlock,
	}
}

// TestKernelPolicyGridAgrees runs the full pipeline under every kernel
// policy, sequential and parallel, and demands identical embedding
// counts plus a populated kernel mix on the intersection locals.
func TestKernelPolicyGridAgrees(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	checked := 0
	for trial := 0; trial < 12 && checked < 6; trial++ {
		g := testutil.RandomGraph(rng, 20+rng.Intn(20), 70+rng.Intn(50), 2)
		q := testutil.RandomConnectedQuery(rng, g, 4+rng.Intn(3))
		if q == nil {
			continue
		}
		want := testutil.BruteForceCount(q, g, 0)
		if want == 0 {
			continue
		}
		checked++
		for _, p := range kernelPolicies() {
			for _, parallel := range []int{0, 3} {
				cfg := Config{Filter: filter.GQL, Order: order.GQL, Local: enumerate.Intersect, Kernel: p}
				res, err := Match(q, g, cfg, Limits{Parallel: parallel})
				if err != nil {
					t.Fatalf("policy %v parallel %d: %v", p, parallel, err)
				}
				if res.Embeddings != want {
					t.Errorf("policy %v parallel %d: %d embeddings, want %d", p, parallel, res.Embeddings, want)
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no trial produced embeddings")
	}
}

// TestKernelMixSurfaced pins the plan-level accounting: an adaptive run
// reports its kernel mix on the Result,
// and the trace span carries the same tallies, in both the sequential
// and the parallel paths.
func TestKernelMixSurfaced(t *testing.T) {
	q, g := testutil.PaperQuery(), testutil.PaperData()
	for _, parallel := range []int{0, 2} {
		cfg := Config{Filter: filter.GQL, Order: order.GQL, Local: enumerate.Intersect}
		res, err := Match(q, g, cfg, Limits{Parallel: parallel, Trace: true})
		if err != nil {
			t.Fatal(err)
		}
		if res.Embeddings != 1 {
			t.Fatalf("parallel %d: %d embeddings, want 1", parallel, res.Embeddings)
		}
		if res.Kernels.Total() == 0 {
			t.Errorf("parallel %d: kernel mix empty on an intersect run", parallel)
		}
		if res.Trace == nil {
			t.Fatalf("parallel %d: no trace", parallel)
		}
	}
	// Non-intersection locals report no kernel executions.
	res, err := Match(q, g, Config{Filter: filter.GQL, Order: order.GQL, Local: enumerate.Scan}, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Kernels.Total() != 0 {
		t.Errorf("scan local tallied kernels: %v", res.Kernels)
	}
}

// TestAdaptiveDefaultMaterializesBlocks checks Preprocess's policy:
// only PolicyBlock builds the flat block layout, charges it to the plan
// and reports it on the build span; the adaptive default and the other
// pinned policies, which never read it, plan none.
func TestAdaptiveDefaultMaterializesBlocks(t *testing.T) {
	q, g := testutil.PaperQuery(), testutil.PaperData()
	cases := []struct {
		kernel intersect.Policy
		want   bool
	}{
		{intersect.PolicyAdaptive, false},
		{intersect.PolicyBlock, true},
		{intersect.PolicyMerge, false},
		{intersect.PolicyGallop, false},
	}
	for _, c := range cases {
		cfg := Config{Filter: filter.GQL, Order: order.GQL, Local: enumerate.Intersect, Kernel: c.kernel}
		plan, err := Preprocess(q, g, cfg, 1)
		if err != nil {
			t.Fatalf("kernel %v: %v", c.kernel, err)
		}
		if got := plan.Space.HasBlocks(); got != c.want {
			t.Errorf("kernel %v: HasBlocks = %v, want %v", c.kernel, got, c.want)
		}
		if got := plan.Space.BlockMemoryBytes() > 0; got != c.want {
			t.Errorf("kernel %v: %d block bytes charged", c.kernel, plan.Space.BlockMemoryBytes())
		}
		if got := plan.Span.Child("build").Attr("block_sets") != nil; got != c.want {
			t.Errorf("kernel %v: build span block attributes present = %v", c.kernel, got)
		}
	}
}
