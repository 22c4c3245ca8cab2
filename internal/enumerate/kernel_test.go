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
		intersect.PolicyBlock,
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

// TestKernelPolicyGridIdenticalEmbeddings is the kernels' correctness
// invariant: every kernel policy — with and without the block layout
// materialized, static and DP-iso adaptive engines — enumerates exactly
// the same embeddings. Policies change kernel dispatch, never results;
// and only the block policy reads a layout, so every other policy runs
// the same kernels over either space.
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

		want, _ := collectEmbeddings(t, q, g, cand, plain, phi, Options{Local: Intersect})
		if len(want) == 0 || !hasKWay {
			continue
		}
		tested++

		for _, dpiso := range []bool{false, true} {
			plainMix := map[intersect.Policy]intersect.KernelStats{}
			for _, space := range []*candspace.Space{plain, blocks} {
				for _, p := range kernelPolicies() {
					opts := Options{Local: Intersect, Kernel: p, Adaptive: dpiso}
					got, st := collectEmbeddings(t, q, g, cand, space, phi, opts)
					if space == plain {
						plainMix[p] = st.Kernels
					} else if p != intersect.PolicyBlock && st.Kernels != plainMix[p] {
						t.Errorf("trial %d policy %v dpiso=%v: kernels %v over the block layout, %v without",
							trial, p, dpiso, st.Kernels, plainMix[p])
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("trial %d policy %v dpiso=%v blocks=%v: %d embeddings differ from reference %d",
							trial, p, dpiso, space.HasBlocks(), len(got), len(want))
					}
					if st.Kernels.Total() == 0 {
						t.Errorf("trial %d policy %v dpiso=%v: no kernel executions tallied", trial, p, dpiso)
					}
					// The block kernel runs only in the QFilter arm (PolicyBlock
					// over a layout), and there in both the static and the
					// DP-iso adaptive engine.
					if (p != intersect.PolicyBlock || !space.HasBlocks()) && st.Kernels[intersect.KernelBlock] != 0 {
						t.Errorf("trial %d policy %v dpiso=%v blocks=%v: block kernel ran", trial, p, dpiso, space.HasBlocks())
					}
					if p == intersect.PolicyBlock && space.HasBlocks() && st.Kernels[intersect.KernelBlock] == 0 {
						t.Errorf("trial %d dpiso=%v: block policy over a layout never ran the block kernel", trial, dpiso)
					}
				}
			}
		}
	}
	if tested == 0 {
		t.Fatal("no trial produced embeddings; fixture generation is broken")
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
