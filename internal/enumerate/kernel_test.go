package enumerate

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"subgraphmatching/internal/candspace"
	"subgraphmatching/internal/filter"
	"subgraphmatching/internal/graph"
	"subgraphmatching/internal/intersect"
	"subgraphmatching/internal/testutil"
)

// kernelPolicies lists every dispatch policy Options.Kernel accepts.
func kernelPolicies() []intersect.Policy {
	return []intersect.Policy{
		intersect.PolicyAdaptive, intersect.PolicyMerge, intersect.PolicyGallop,
		intersect.PolicyHybrid, intersect.PolicyBlock,
	}
}

// collectEmbeddings runs opts over a space and returns the sorted full
// embedding list — byte-level agreement, not just counts.
func collectEmbeddings(t *testing.T, q, g *graph.Graph, cand [][]uint32, space *candspace.Space, phi []graph.Vertex, opts Options) ([][]uint32, *Stats) {
	t.Helper()
	var out [][]uint32
	opts.OnRun = eachEmbedding(func(m []uint32) bool {
		out = append(out, append([]uint32(nil), m...))
		return true
	})
	st, err := Run(q, g, cand, space, phi, opts)
	if err != nil {
		t.Fatalf("Run(%+v): %v", opts, err)
	}
	sort.Slice(out, func(i, j int) bool {
		for k := range out[i] {
			if out[i][k] != out[j][k] {
				return out[i][k] < out[j][k]
			}
		}
		return false
	})
	return out, st
}

// TestKernelPolicyGridIdenticalEmbeddings is the tentpole's correctness
// invariant: every kernel policy — with and without the block layout
// materialized, static and DP-iso adaptive engines — enumerates exactly
// the same embeddings. Policies change kernel dispatch, never results.
func TestKernelPolicyGridIdenticalEmbeddings(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	tested := 0
	for trial := 0; trial < 12 && tested < 8; trial++ {
		g := testutil.RandomGraph(rng, 20+rng.Intn(20), 60+rng.Intn(60), 2+rng.Intn(2))
		q := testutil.RandomConnectedQuery(rng, g, 4+rng.Intn(3))
		if q == nil {
			continue
		}
		cand, err := filter.Run(filter.GQL, q, g)
		if err != nil {
			continue
		}
		phi := graph.NewBFSTree(q, 0).Order
		plain := candspace.BuildFull(q, g, cand)
		blocks := candspace.BuildFull(q, g, cand)
		blocks.MaterializeBlocks()

		// Pairwise kernels only execute where a vertex has ≥2 backward
		// neighbors in the matching order; tree-shaped queries take the
		// single-adjacency fast path and tally nothing.
		hasKWay := false
		for i, u := range phi {
			bwd := 0
			for _, w := range q.Neighbors(u) {
				for j := 0; j < i; j++ {
					if phi[j] == w {
						bwd++
					}
				}
			}
			if bwd >= 2 {
				hasKWay = true
			}
		}

		want, _ := collectEmbeddings(t, q, g, cand, plain, phi, Options{Local: Intersect, Kernel: intersect.PolicyHybrid})
		if len(want) == 0 || !hasKWay {
			continue
		}
		tested++

		for _, dpiso := range []bool{false, true} {
			for _, space := range []*candspace.Space{plain, blocks} {
				for _, p := range kernelPolicies() {
					opts := Options{Local: Intersect, Kernel: p, Adaptive: dpiso}
					got, st := collectEmbeddings(t, q, g, cand, space, phi, opts)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("trial %d policy %v dpiso=%v blocks=%v: %d embeddings differ from reference %d",
							trial, p, dpiso, space.HasBlocks(), len(got), len(want))
					}
					if st.Kernels.Total() == 0 {
						t.Errorf("trial %d policy %v dpiso=%v: no kernel executions tallied", trial, p, dpiso)
					}
					// The block kernel can only run where a layout exists.
					if !space.HasBlocks() && st.Kernels[intersect.KernelBlock] != 0 {
						t.Errorf("trial %d policy %v dpiso=%v: block kernel ran without a layout", trial, p, dpiso)
					}
				}
				// Satellite fix: IntersectBlock must honor the layout in
				// both the static and the DP-iso adaptive engine.
				opts := Options{Local: IntersectBlock, Adaptive: dpiso}
				got, st := collectEmbeddings(t, q, g, cand, space, phi, opts)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("trial %d IntersectBlock dpiso=%v: embeddings differ from reference", trial, dpiso)
				}
				if st.Kernels[intersect.KernelBlock] == 0 {
					t.Errorf("trial %d IntersectBlock dpiso=%v: block kernel never ran", trial, dpiso)
				}
			}
		}
	}
	if tested == 0 {
		t.Fatal("no trial produced embeddings; fixture generation is broken")
	}
}

// TestAdaptiveWithoutBlocksMatchesHybrid pins the degradation contract:
// when no block layout was materialized, the adaptive policy makes
// exactly the Hybrid kernel choices (same per-kernel tallies), so
// enabling it can never regress a blockless run.
func TestAdaptiveWithoutBlocksMatchesHybrid(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	g := testutil.RandomGraph(rng, 40, 160, 2)
	var q *graph.Graph
	for q == nil {
		q = testutil.RandomConnectedQuery(rng, g, 5)
	}
	cand, err := filter.Run(filter.GQL, q, g)
	if err != nil {
		t.Fatal(err)
	}
	phi := graph.NewBFSTree(q, 0).Order
	space := candspace.BuildFull(q, g, cand)
	_, hybrid := collectEmbeddings(t, q, g, cand, space, phi, Options{Local: Intersect, Kernel: intersect.PolicyHybrid})
	_, adaptive := collectEmbeddings(t, q, g, cand, space, phi, Options{Local: Intersect, Kernel: intersect.PolicyAdaptive})
	if adaptive.Kernels != hybrid.Kernels {
		t.Errorf("adaptive without blocks tallied %v, hybrid %v — choices must coincide", adaptive.Kernels, hybrid.Kernels)
	}
	if adaptive.Kernels[intersect.KernelBlock] != 0 {
		t.Errorf("block kernel ran without a layout: %v", adaptive.Kernels)
	}
}

// TestKernelPolicySteadyStateAllocFree extends the zero-alloc contract
// to the selector path: a warmed engine dispatching through every
// policy over a materialized block layout allocates nothing per run.
func TestKernelPolicySteadyStateAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := testutil.RandomGraph(rng, 60, 240, 2)
	var q *graph.Graph
	for q == nil {
		q = testutil.RandomConnectedQuery(rng, g, 5)
	}
	cand, err := filter.Run(filter.GQL, q, g)
	if err != nil {
		t.Fatal(err)
	}
	phi := graph.NewBFSTree(q, 0).Order
	space := candspace.BuildFull(q, g, cand)
	space.MaterializeBlocks()
	for _, p := range kernelPolicies() {
		e, err := NewEngine(q, g, cand, space, phi, Options{Local: Intersect, Kernel: p})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			e.Run()
		}
		if allocs := testing.AllocsPerRun(20, func() { e.Run() }); allocs > 0 {
			t.Errorf("policy %v: %.1f allocs per warmed run, want 0", p, allocs)
		}
	}
}
