package core

import (
	"math/rand"
	"sync"
	"testing"

	"subgraphmatching/internal/enumerate"
	"subgraphmatching/internal/filter"
	"subgraphmatching/internal/graph"
	"subgraphmatching/internal/intersect"
	"subgraphmatching/internal/order"
	"subgraphmatching/internal/testutil"
)

func kernelPolicies() []intersect.Policy {
	return []intersect.Policy{
		intersect.PolicyAdaptive, intersect.PolicyMerge, intersect.PolicyGallop,
		intersect.PolicyHybrid, intersect.PolicyBlock,
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
// over a block-materialized space reports its kernel mix on the Result,
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
// the adaptive default (and PolicyBlock) build the flat block layout;
// pinned slice-only policies skip it.
func TestAdaptiveDefaultMaterializesBlocks(t *testing.T) {
	q, g := testutil.PaperQuery(), testutil.PaperData()
	cases := []struct {
		kernel intersect.Policy
		want   bool
	}{
		{intersect.PolicyAdaptive, true},
		{intersect.PolicyBlock, true},
		{intersect.PolicyHybrid, false},
		{intersect.PolicyMerge, false},
		{intersect.PolicyGallop, false},
	}
	for _, c := range cases {
		for _, workers := range []int{1, 4} {
			cfg := Config{Filter: filter.GQL, Order: order.GQL, Local: enumerate.Intersect, Kernel: c.kernel}
			plan, err := Preprocess(q, g, cfg, workers)
			if err != nil {
				t.Fatalf("kernel %v workers %d: %v", c.kernel, workers, err)
			}
			if got := plan.Space.HasBlocks(); got != c.want {
				t.Errorf("kernel %v workers %d: HasBlocks = %v, want %v", c.kernel, workers, got, c.want)
			}
		}
	}
}

// TestLazyBlockArenaStress is the race-detector gate for arenas encoded
// on first pick (`make race-stress`): 32 goroutines search one fresh
// adaptive plan at once, racing to the block kernel's first pick on the
// same pairs. Every search must tally the kernel mix of an eagerly
// materialised twin, each arena must be encoded once — as many as one
// search alone encodes — and the plan's charge must not move.
func TestLazyBlockArenaStress(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	g := testutil.RandomGraph(rng, 150, 1800, 2)
	var q *graph.Graph
	for q == nil {
		q = testutil.RandomConnectedQuery(rng, g, 5)
	}
	cfg := Config{Filter: filter.GQL, Order: order.GQL, Local: enumerate.Intersect}
	preprocess := func() *Plan {
		t.Helper()
		p, err := Preprocess(q, g, cfg, 1)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	twin := preprocess()
	twin.Space.MaterializeBlocks()
	want, err := MatchPlan(twin, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if want.Kernels[intersect.KernelBlock] == 0 {
		t.Fatalf("fixture never picks the block kernel: %v", want.Kernels)
	}
	alone := preprocess()
	if _, err := MatchPlan(alone, Limits{}); err != nil {
		t.Fatal(err)
	}
	wantArenas, wantBytes := alone.Space.EncodedBlocks()

	plan := preprocess()
	size := plan.SizeBytes()
	if size != twin.SizeBytes() {
		t.Fatalf("plan charged %d bytes, its eager twin %d", size, twin.SizeBytes())
	}
	if n, _ := plan.Space.EncodedBlocks(); n != 0 {
		t.Fatalf("a fresh adaptive plan holds %d encoded arenas", n)
	}
	const searches = 32
	var wg sync.WaitGroup
	for i := 0; i < searches; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := MatchPlan(plan, Limits{})
			if err != nil {
				t.Error(err)
				return
			}
			if res.Embeddings != want.Embeddings || res.Kernels != want.Kernels {
				t.Errorf("%d embeddings, kernels %v; eager twin %d, %v", res.Embeddings, res.Kernels, want.Embeddings, want.Kernels)
			}
		}()
	}
	wg.Wait()
	if n, b := plan.Space.EncodedBlocks(); n != wantArenas || b != wantBytes {
		t.Errorf("%d searches encoded %d arenas (%d bytes); one search alone encodes %d (%d bytes)",
			searches, n, b, wantArenas, wantBytes)
	}
	if got := plan.SizeBytes(); got != size {
		t.Errorf("SizeBytes moved from %d to %d as arenas were encoded", size, got)
	}
}
