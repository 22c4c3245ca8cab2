package enumerate

import (
	"math/rand"
	"testing"

	"subgraphmatching/internal/filter"
	"subgraphmatching/internal/graph"
	"subgraphmatching/internal/intersect"
	"subgraphmatching/internal/testutil"
)

// reuseOptionSets covers every recursion variant the reusable engine
// dispatches to, and the last level with and without a sink.
func reuseOptionSets() []Options {
	takeAll := func(_ []uint32, _ graph.Vertex, vs []uint32) int { return len(vs) }
	return []Options{
		{Local: Direct},
		{Local: Intersect},
		{Local: Intersect, OnRun: takeAll},
		{Local: Intersect, FailingSets: true},
		{Local: Intersect, Kernel: intersect.PolicyBlock},
		{Local: Intersect, Adaptive: true},
		{Local: Intersect, Adaptive: true, FailingSets: true},
	}
}

func TestEngineRepeatedRunsAreIdentical(t *testing.T) {
	q, g := testutil.PaperQuery(), testutil.PaperData()
	f := newFixture(t, q, g, filter.GQL)
	for _, opts := range reuseOptionSets() {
		e, err := NewEngine(f.q, f.g, f.cand, f.space, f.phi, opts)
		if err != nil {
			t.Fatalf("%+v: %v", opts, err)
		}
		ref := f.run(t, opts)
		for i := 0; i < 3; i++ {
			st := e.Run()
			if st.Embeddings != ref.Embeddings || st.Nodes != ref.Nodes {
				t.Errorf("opts %+v run %d: (%d emb, %d nodes), want (%d, %d)",
					opts, i, st.Embeddings, st.Nodes, ref.Embeddings, ref.Nodes)
			}
		}
	}
}

func TestEngineRunRootPartitionsTheSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 8; trial++ {
		g := testutil.RandomGraph(rng, 24+rng.Intn(16), 70+rng.Intn(50), 2)
		q := testutil.RandomConnectedQuery(rng, g, 4+rng.Intn(3))
		if q == nil {
			continue
		}
		cand, err := filter.Run(filter.GQL, q, g)
		if err != nil || filter.AnyEmpty(cand) {
			continue
		}
		f := newFixture(t, q, g, filter.GQL)
		for _, opts := range reuseOptionSets() {
			ref := f.run(t, opts)
			e, err := NewEngine(f.q, f.g, f.cand, f.space, f.phi, opts)
			if err != nil {
				t.Fatalf("NewEngine: %v", err)
			}
			for _, v := range f.cand[f.phi[0]] {
				if !e.RunPrefix([]uint32{v}) {
					t.Fatalf("RunPrefix(%d) stopped unexpectedly", v)
				}
			}
			if got := e.Stats().Embeddings; got != ref.Embeddings {
				t.Errorf("trial %d opts %+v: root partition found %d embeddings, full run %d",
					trial, opts, got, ref.Embeddings)
			}
		}
	}
}

func TestEngineRootPairPartitionsTheSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 8; trial++ {
		g := testutil.RandomGraph(rng, 24+rng.Intn(16), 70+rng.Intn(50), 2)
		q := testutil.RandomConnectedQuery(rng, g, 4+rng.Intn(3))
		if q == nil {
			continue
		}
		cand, err := filter.Run(filter.GQL, q, g)
		if err != nil || filter.AnyEmpty(cand) {
			continue
		}
		f := newFixture(t, q, g, filter.GQL)
		for _, opts := range reuseOptionSets() {
			ref := f.run(t, opts)
			e, err := NewEngine(f.q, f.g, f.cand, f.space, f.phi, opts)
			if err != nil {
				t.Fatalf("NewEngine: %v", err)
			}
			var buf []uint32
			for _, v := range f.cand[f.phi[0]] {
				buf = e.ExpandPrefix([]uint32{v}, buf[:0])
				for _, w := range buf {
					if !e.RunPrefix([]uint32{v, w}) {
						t.Fatalf("RunPrefix(%d,%d) stopped unexpectedly", v, w)
					}
				}
			}
			if got := e.Stats().Embeddings; got != ref.Embeddings {
				t.Errorf("trial %d opts %+v: pair partition found %d embeddings, full run %d",
					trial, opts, got, ref.Embeddings)
			}
		}
	}
}

// TestEngineRunRootAccumulatesAcrossTasks pins the scheduler contract:
// the per-task entry point accumulates into Stats until ResetStats.
func TestEngineRunRootAccumulatesAcrossTasks(t *testing.T) {
	q, g := testutil.PaperQuery(), testutil.PaperData()
	f := newFixture(t, q, g, filter.GQL)
	e, err := NewEngine(f.q, f.g, f.cand, f.space, f.phi, Options{Local: Intersect})
	if err != nil {
		t.Fatal(err)
	}
	roots := f.cand[f.phi[0]]
	for _, v := range roots {
		e.RunPrefix([]uint32{v})
	}
	firstNodes := e.Stats().Nodes
	if firstNodes == 0 {
		t.Fatal("no nodes accounted")
	}
	for _, v := range roots {
		e.RunPrefix([]uint32{v})
	}
	if got := e.Stats().Nodes; got != 2*firstNodes {
		t.Errorf("accumulated nodes = %d, want %d", got, 2*firstNodes)
	}
	e.ResetStats()
	if got := e.Stats().Nodes; got != 0 {
		t.Errorf("nodes after ResetStats = %d", got)
	}
}

// TestEngineSteadyStateAllocationFree is the zero-alloc contract behind
// the engine-reuse API: once buffers are warm, a full enumeration run
// performs no heap allocations, and neither do the task entries.
func TestEngineSteadyStateAllocationFree(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := testutil.RandomGraph(rng, 60, 240, 2)
	var q *graph.Graph
	for q == nil {
		q = testutil.RandomConnectedQuery(rng, g, 5)
	}
	f := newFixture(t, q, g, filter.GQL)
	roots := f.cand[f.phi[0]]
	for _, opts := range reuseOptionSets() {
		e, err := NewEngine(f.q, f.g, f.cand, f.space, f.phi, opts)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			e.Run() // warm the per-depth buffers
		}
		if allocs := testing.AllocsPerRun(20, func() { e.Run() }); allocs > 0 {
			t.Errorf("opts %+v: %.1f allocs per warmed run, want 0", opts, allocs)
		}
		// The task entries — what a scheduler worker and its splitter
		// call per task — pin and probe out of the same buffers.
		pair := make([]uint32, 2)
		var children []uint32
		tasks := func() {
			for i := range roots {
				e.RunPrefix(roots[i : i+1])
				children = e.ExpandPrefix(roots[i:i+1], children[:0])
				for _, w := range children {
					pair[0], pair[1] = roots[i], w
					e.RunPrefix(pair)
				}
			}
		}
		tasks()
		if allocs := testing.AllocsPerRun(20, tasks); allocs > 0 {
			t.Errorf("opts %+v: %.1f allocs per warmed pass over the task entries, want 0", opts, allocs)
		}
	}
}

// TestProfileOffAllocationFree is the profiling cost budget: with
// Options.Profile off, every recursion variant — including the adaptive
// order and the failing-set paths, whose hot loops carry the profile
// hooks behind a nil check — stays allocation-free once warm. The hooks
// must cost nothing when nobody asked for a profile.
func TestProfileOffAllocationFree(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	g := testutil.RandomGraph(rng, 60, 240, 2)
	var q *graph.Graph
	for q == nil {
		q = testutil.RandomConnectedQuery(rng, g, 5)
	}
	f := newFixture(t, q, g, filter.GQL)
	for _, opts := range reuseOptionSets() {
		e, err := NewEngine(f.q, f.g, f.cand, f.space, f.phi, opts)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			e.Run()
		}
		if allocs := testing.AllocsPerRun(20, func() { e.Run() }); allocs > 0 {
			t.Errorf("opts %+v: %.1f allocs per warmed run with Profile off, want 0", opts, allocs)
		}
	}
	// Profiled engines reuse their counter slices too: after the
	// one-time profile allocation, repeated runs reset in place.
	for _, opts := range reuseOptionSets() {
		opts.Profile = true
		e, err := NewEngine(f.q, f.g, f.cand, f.space, f.phi, opts)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			e.Run()
		}
		if allocs := testing.AllocsPerRun(20, func() { e.Run() }); allocs > 0 {
			t.Errorf("opts %+v: %.1f allocs per warmed profiled run, want 0", opts, allocs)
		}
	}
}
