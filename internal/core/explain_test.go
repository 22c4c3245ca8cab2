package core

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"subgraphmatching/internal/graph"
	"subgraphmatching/internal/testutil"
)

// explainPresets are the presets whose plans the framework enumerates:
// an engine plan's EXPLAIN ANALYZE carries totals and no heat table.
func explainPresets() []Algorithm {
	return []Algorithm{QuickSI, GraphQL, CFL, CECI, DPIso, RI, VF2PP, Optimized}
}

// TestExplainReconcilesAcrossPresetsAndWorkers is the acceptance
// identity of the EXPLAIN layer: the per-depth heat table must reconcile
// exactly with the Result totals — sum of heat nodes equals Nodes, the
// emit-depth row plus the counted embeddings, times the orbit, equals
// Embeddings, and the per-depth
// kernel tallies sum to the run's kernel mix — for every preset at every
// worker count. Runs are uncapped: under an embedding cap workers race
// the stop flag and engine-local tallies legitimately exceed the
// accepted count.
func TestExplainReconcilesAcrossPresetsAndWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	g := testutil.RandomGraph(rng, 40, 140, 2)
	var q *graph.Graph
	for q == nil {
		q = testutil.RandomConnectedQuery(rng, g, 5)
	}
	n := q.NumVertices()
	for _, a := range explainPresets() {
		cfg := PresetConfig(a, q, g)
		var oneWorker []StageProfile
		for _, workers := range []int{1, 2, 4, 8} {
			res, err := Match(q, g, cfg, Limits{Parallel: workers, Profile: true})
			if err != nil {
				t.Fatalf("%v/w%d: %v", a, workers, err)
			}
			p := res.Explain
			if p == nil || !p.Analyzed {
				t.Fatalf("%v/w%d: missing analyzed explain", a, workers)
			}
			if got := p.heatNodesTotal(); got != res.Nodes {
				t.Errorf("%v/w%d: heat nodes %d != result nodes %d", a, workers, got, res.Nodes)
			}
			var leaf uint64
			for _, h := range p.Heat {
				if h.Depth == n {
					leaf += h.Nodes
				}
				leaf += h.Counted
			}
			orbit := p.Orbit
			if orbit == 0 {
				orbit = 1
			}
			if leaf*orbit != res.Embeddings {
				t.Errorf("%v/w%d: emit-depth nodes + counted %d x orbit %d != embeddings %d",
					a, workers, leaf, orbit, res.Embeddings)
			}
			if p.Embeddings != res.Embeddings || p.Nodes != res.Nodes {
				t.Errorf("%v/w%d: explain totals (%d, %d) != result (%d, %d)",
					a, workers, p.Embeddings, p.Nodes, res.Embeddings, res.Nodes)
			}

			// Per-depth kernel tallies sum to the run's kernel mix.
			got := map[string]uint64{}
			for _, h := range p.Heat {
				for k, v := range h.Kernels {
					got[k] += v
				}
			}
			want := res.Kernels.Map()
			if len(got) != len(want) {
				t.Errorf("%v/w%d: heat kernels %v != result kernels %v", a, workers, got, want)
			}
			for k, v := range want {
				if got[k] != v {
					t.Errorf("%v/w%d: kernel %s: heat %d != result %d", a, workers, k, got[k], v)
				}
			}

			// Filter stages chain: each stage starts where the previous
			// ended, and the per-vertex counts sum to the stage total.
			if len(p.Filter) == 0 {
				t.Fatalf("%v/w%d: no filter stages", a, workers)
			}
			if p.Filter[0].Before != uint64(n)*uint64(g.NumVertices()) {
				t.Errorf("%v/w%d: first stage before = %d, want %d",
					a, workers, p.Filter[0].Before, uint64(n)*uint64(g.NumVertices()))
			}
			for i, st := range p.Filter {
				if i > 0 && st.Before != p.Filter[i-1].After {
					t.Errorf("%v/w%d: stage %q before %d != previous after %d",
						a, workers, st.Name, st.Before, p.Filter[i-1].After)
				}
				if len(st.Counts) != n {
					t.Errorf("%v/w%d: stage %q has %d per-vertex counts, want %d",
						a, workers, st.Name, len(st.Counts), n)
				}
				var sum uint64
				for _, c := range st.Counts {
					sum += uint64(c)
				}
				if sum != st.After {
					t.Errorf("%v/w%d: stage %q counts sum %d != after %d",
						a, workers, st.Name, sum, st.After)
				}
			}

			// The reduction table is the one-worker table at every worker
			// count — GraphQL's included.
			if workers == 1 {
				oneWorker = p.Filter
			} else if len(p.Filter) != len(oneWorker) {
				t.Errorf("%v/w%d: %d filter stages, one worker had %d", a, workers, len(p.Filter), len(oneWorker))
			} else {
				for i, st := range p.Filter {
					if w1 := oneWorker[i]; st.Name != w1.Name || st.After != w1.After || !slices.Equal(st.Counts, w1.Counts) {
						t.Errorf("%v/w%d: stage %d (%s, %d, %v) != one-worker (%s, %d, %v)",
							a, workers, i, st.Name, st.After, st.Counts, w1.Name, w1.After, w1.Counts)
					}
				}
			}

			// Order section: static presets list every position with its
			// cardinality; adaptive runs declare themselves instead.
			if cfg.Adaptive {
				if !p.Adaptive || len(p.Order) != 0 {
					t.Errorf("%v/w%d: adaptive run published a static order", a, workers)
				}
			} else if len(p.Order) != n {
				t.Errorf("%v/w%d: order has %d entries, want %d", a, workers, len(p.Order), n)
			}

			// Parallel runs attribute nodes per worker; the attribution
			// must sum back to the merged heat.
			if workers > 1 && res.Nodes > 0 {
				var wsum uint64
				for _, wh := range p.Workers {
					for _, nn := range wh.Nodes {
						wsum += nn
					}
				}
				if wsum != res.Nodes {
					t.Errorf("%v/w%d: worker heat sum %d != nodes %d", a, workers, wsum, res.Nodes)
				}
			}
		}
	}
}

// TestExplainSymmetryOrbit checks the symmetry-breaking reconciliation:
// the heat table counts canonical embeddings, and Embeddings is that
// count times the orbit multiplier.
func TestExplainSymmetryOrbit(t *testing.T) {
	// A triangle query over a clique of one label: every vertex is
	// interchangeable, so the orbit multiplier is 3! = 6.
	q := graph.MustFromEdges(
		[]graph.Label{0, 0, 0},
		[][2]graph.Vertex{{0, 1}, {1, 2}, {0, 2}},
	)
	g := graph.MustFromEdges(
		[]graph.Label{0, 0, 0, 0},
		[][2]graph.Vertex{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}},
	)
	cfg := PresetConfig(QuickSI, q, g)
	cfg.SymmetryBreaking = true
	res, err := Match(q, g, cfg, Limits{Profile: true})
	if err != nil {
		t.Fatal(err)
	}
	p := res.Explain
	if p == nil || p.Orbit != 6 {
		t.Fatalf("explain = %+v, want orbit 6", p)
	}
	var leaf uint64
	for _, h := range p.Heat {
		if h.Depth == q.NumVertices() {
			leaf = h.Nodes
		}
	}
	if leaf*p.Orbit != res.Embeddings {
		t.Fatalf("canonical %d x orbit %d != embeddings %d", leaf, p.Orbit, res.Embeddings)
	}
	if res.Embeddings != 24 { // 4 triangles x 6 orderings
		t.Fatalf("embeddings = %d, want 24", res.Embeddings)
	}
}

// TestExplainPlanDryRun checks the EXPLAIN-without-ANALYZE path: plan
// sections populated, no heat, not analyzed.
func TestExplainPlanDryRun(t *testing.T) {
	q, g := testutil.PaperQuery(), testutil.PaperData()
	plan, err := Preprocess(q, g, PresetConfig(GraphQL, q, g), 1)
	if err != nil {
		t.Fatal(err)
	}
	p := ExplainPlan(plan)
	if p.Analyzed || len(p.Heat) != 0 {
		t.Fatalf("dry run produced analyzed output: %+v", p)
	}
	if len(p.Filter) == 0 || len(p.Order) != q.NumVertices() {
		t.Fatalf("dry run missing plan sections: %+v", p)
	}
	if p.OrderMethod == "" {
		t.Fatal("dry run missing order method")
	}
	var sb strings.Builder
	p.Render(&sb)
	out := sb.String()
	if !strings.Contains(out, "filter stages:") || !strings.Contains(out, "order (") {
		t.Fatalf("render missing sections:\n%s", out)
	}
	if strings.Contains(out, "enumeration heat:") {
		t.Fatalf("dry-run render shows heat:\n%s", out)
	}
}

// TestExplainEmptyPlan: a query whose label exists nowhere in the data
// graph filters to empty; EXPLAIN must still show the stage that killed
// it.
func TestExplainEmptyPlan(t *testing.T) {
	q := graph.MustFromEdges(
		[]graph.Label{9, 9},
		[][2]graph.Vertex{{0, 1}},
	)
	g := testutil.PaperData()
	res, err := Match(q, g, PresetConfig(QuickSI, q, g), Limits{Profile: true})
	if err != nil {
		t.Fatal(err)
	}
	p := res.Explain
	if p == nil || !p.Empty {
		t.Fatalf("explain = %+v, want Empty", p)
	}
	if len(p.Filter) == 0 {
		t.Fatal("empty plan lost its filter stages")
	}
	if last := p.Filter[len(p.Filter)-1]; last.After != 0 {
		t.Fatalf("last stage after = %d, want 0", last.After)
	}
	var sb strings.Builder
	p.Render(&sb)
	if !strings.Contains(sb.String(), "empty candidate set") {
		t.Fatalf("render missing empty marker:\n%s", sb.String())
	}
}

// TestExplainRenderAnalyzed smoke-tests the ANALYZE rendering.
func TestExplainRenderAnalyzed(t *testing.T) {
	q, g := testutil.PaperQuery(), testutil.PaperData()
	res, err := Match(q, g, PresetConfig(Optimized, q, g), Limits{Profile: true, Parallel: 2})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	res.Explain.Render(&sb)
	out := sb.String()
	for _, want := range []string{"filter stages:", "enumeration heat:", "workers:", "totals:"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

// TestProfileOffLeavesExplainNil: without Limits.Profile nothing
// explain-related is built.
func TestProfileOffLeavesExplainNil(t *testing.T) {
	q, g := testutil.PaperQuery(), testutil.PaperData()
	res, err := Match(q, g, PresetConfig(QuickSI, q, g), Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Explain != nil || res.Profile != nil || res.WorkerProfiles != nil {
		t.Fatalf("unprofiled run carries profile state: %+v", res)
	}
}
