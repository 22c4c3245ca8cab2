package enumerate

import (
	"math/rand"
	"slices"
	"sync/atomic"
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
				buf = children(e, []uint32{v}, buf[:0])
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
// the per-task entry point accumulates into Stats until Rearm.
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
	e.Rearm(Options{})
	if got := e.Stats().Nodes; got != 0 {
		t.Errorf("nodes after Rearm = %d", got)
	}
}

// TestEngineSteadyStateAllocationFree is the zero-alloc contract behind
// the engine-reuse API: once buffers are warm, a full enumeration run
// performs no heap allocations, and neither do the task entries nor a
// search that donates.
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
		// The task entry — what a scheduler worker calls per task — pins
		// out of the same buffers, at any prefix length.
		pair := make([]uint32, 2)
		var kids []uint32
		tasks := func() {
			for i := range roots {
				e.RunPrefix(roots[i : i+1])
				kids = children(e, roots[i:i+1], kids[:0])
				for _, w := range kids {
					pair[0], pair[1] = roots[i], w
					e.RunPrefix(pair)
				}
			}
		}
		tasks()
		if allocs := testing.AllocsPerRun(20, tasks); allocs > 0 {
			t.Errorf("opts %+v: %.1f allocs per warmed pass over the task entries, want 0", opts, allocs)
		}

		// A search with an idle worker to feed offers work at every
		// interior node; donate builds Give's arguments in engine scratch.
		var idle atomic.Int32
		idle.Store(1)
		calls := 0
		opts.Donor = &Donor{Idle: &idle, Give: func(_, _ []uint32) bool {
			calls++
			return calls%2 == 0
		}}
		d, err := NewEngine(f.q, f.g, f.cand, f.space, f.phi, opts)
		if err != nil {
			t.Fatal(err)
		}
		donating := func() {
			for i := range roots {
				d.RunPrefix(roots[i : i+1])
			}
		}
		donating()
		if calls == 0 {
			t.Fatalf("opts %+v: the search never offered work", opts)
		}
		if allocs := testing.AllocsPerRun(20, donating); allocs > 0 {
			t.Errorf("opts %+v: %.1f allocs per warmed donating pass, want 0", opts, allocs)
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

// TestRearmSwapsRequestOptions pins Rearm's contract: the request-scoped
// options are replaced, the plan-scoped ones are the engine's for life,
// and a profiled run's profile stays with its reader after the engine
// moves on.
func TestRearmSwapsRequestOptions(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := testutil.RandomGraph(rng, 60, 240, 2)
	var q *graph.Graph
	for q == nil {
		q = testutil.RandomConnectedQuery(rng, g, 5)
	}
	f := newFixture(t, q, g, filter.GQL)
	ref := f.run(t, Options{Local: Intersect})
	if ref.Embeddings < 2 {
		t.Fatalf("fixture has %d embeddings, want at least 2", ref.Embeddings)
	}
	e, err := NewEngine(f.q, f.g, f.cand, f.space, f.phi, Options{Local: Intersect, MaxEmbeddings: 1, Profile: true})
	if err != nil {
		t.Fatal(err)
	}
	first := e.Run()
	if first.Embeddings != 1 || !first.LimitHit || first.Profile == nil {
		t.Fatalf("capped run: %d embeddings, LimitHit %v, profile %v", first.Embeddings, first.LimitHit, first.Profile != nil)
	}
	prof, profNodes := first.Profile, first.Profile.TotalNodes()

	// Local is plan-scoped: Direct here is ignored, and the intersection
	// kernels still run.
	e.Rearm(Options{Local: Direct})
	st := e.Run()
	if st.Embeddings != ref.Embeddings || st.Nodes != ref.Nodes || st.LimitHit || st.Profile != nil {
		t.Errorf("rearmed uncapped run: %d embeddings, %d nodes, LimitHit %v, profile %v; want %d, %d",
			st.Embeddings, st.Nodes, st.LimitHit, st.Profile != nil, ref.Embeddings, ref.Nodes)
	}
	if st.Kernels != ref.Kernels {
		t.Errorf("rearmed run kernels %v, want %v", st.Kernels, ref.Kernels)
	}

	e.Rearm(Options{Profile: true})
	if st := e.Run(); st.Profile == nil || st.Profile == prof {
		t.Errorf("a profiled request reused the previous request's profile")
	}
	if prof.TotalNodes() != profNodes {
		t.Errorf("the first request's profile changed under its reader: %d nodes, was %d", prof.TotalNodes(), profNodes)
	}
}

// TestReleaseReturnsMarks: Release hands the engine's visited marks back
// to the data graph, cleared, and an engine rearmed after it takes marks
// again and answers as before.
func TestReleaseReturnsMarks(t *testing.T) {
	q, g := testutil.PaperQuery(), testutil.PaperData()
	f := newFixture(t, q, g, filter.GQL)
	ref := f.run(t, Options{Local: Intersect})
	e, err := NewEngine(f.q, f.g, f.cand, f.space, f.phi, Options{Local: Intersect})
	if err != nil {
		t.Fatal(err)
	}
	e.Run()
	marks := e.visited
	e.Release()
	if e.visited != nil {
		t.Fatal("a released engine still holds its marks")
	}
	got := g.Marks()
	if &got[0] != &marks[0] || slices.Contains(got, true) {
		t.Errorf("the data graph's next marks are not the released, cleared array")
	}
	g.PutMarks(got)
	e.Rearm(Options{})
	if st := e.Run(); st.Embeddings != ref.Embeddings || st.Nodes != ref.Nodes {
		t.Errorf("rearmed after Release: %d embeddings, %d nodes; want %d, %d", st.Embeddings, st.Nodes, ref.Embeddings, ref.Nodes)
	}
}
