package core

import (
	"testing"

	"subgraphmatching/internal/enumerate"
	"subgraphmatching/internal/filter"
	"subgraphmatching/internal/intersect"
	"subgraphmatching/internal/order"
	"subgraphmatching/internal/testutil"
)

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
