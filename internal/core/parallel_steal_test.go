package core

import (
	"math/rand"
	"sync/atomic"
	"testing"

	"subgraphmatching/internal/enumerate"
	"subgraphmatching/internal/filter"
	"subgraphmatching/internal/graph"
	"subgraphmatching/internal/order"
	"subgraphmatching/internal/testutil"
)

// equivalenceConfigs are the engine variants the scheduler must agree
// with sequential execution on: intersection candidates with failing
// sets on and off, plus the direct (auxiliary-free) path.
func equivalenceConfigs() []Config {
	return []Config{
		{Filter: filter.GQL, Order: order.GQL, Local: enumerate.Intersect},
		{Filter: filter.GQL, Order: order.GQL, Local: enumerate.Intersect, FailingSets: true},
		{Filter: filter.LDF, Order: order.RI, Local: enumerate.Direct},
	}
}

// TestParallelEquivalenceAcrossWorkers is the property the issue pins:
// workers ∈ {1,2,4,8} × failing sets on/off × with and without
// MaxEmbeddings all report identical counts.
func TestParallelEquivalenceAcrossWorkers(t *testing.T) {
	type workload struct {
		name string
		q, g *graph.Graph
	}
	workloads := []workload{{"paper", testutil.PaperQuery(), testutil.PaperData()}}
	rng := rand.New(rand.NewSource(99))
	for len(workloads) < 4 {
		g := testutil.RandomGraph(rng, 30+rng.Intn(20), 90+rng.Intn(60), 2)
		q := testutil.RandomConnectedQuery(rng, g, 4+rng.Intn(3))
		if q != nil {
			workloads = append(workloads, workload{"rand", q, g})
		}
	}
	for _, wl := range workloads {
		for _, cfg := range equivalenceConfigs() {
			seq, err := Match(wl.q, wl.g, cfg, Limits{})
			if err != nil {
				t.Fatalf("%s sequential: %v", wl.name, err)
			}
			for _, cap := range []uint64{0, 7} {
				want := seq.Embeddings
				if cap > 0 && want > cap {
					want = cap
				}
				for _, workers := range []int{1, 2, 4, 8} {
					par, err := Match(wl.q, wl.g, cfg, Limits{Parallel: workers, MaxEmbeddings: cap})
					if err != nil {
						t.Fatalf("%s workers=%d: %v", wl.name, workers, err)
					}
					if par.Embeddings != want {
						t.Errorf("%s cfg %+v workers=%d cap=%d: %d embeddings, want %d",
							wl.name, cfg, workers, cap, par.Embeddings, want)
					}
				}
			}
		}
	}
}

// TestParallelForcedDepthOneSplit drives the fine-grained (root, second)
// task path: at most 50 data vertices against 4×32 puts every trial in
// the split regime.
func TestParallelForcedDepthOneSplit(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 6; trial++ {
		g := testutil.RandomGraph(rng, 30+rng.Intn(20), 90+rng.Intn(60), 2)
		q := testutil.RandomConnectedQuery(rng, g, 4+rng.Intn(3))
		if q == nil {
			continue
		}
		for _, cfg := range equivalenceConfigs() {
			seq, err := Match(q, g, cfg, Limits{})
			if err != nil {
				t.Fatal(err)
			}
			par, err := Match(q, g, cfg, Limits{Parallel: 4})
			if err != nil {
				t.Fatal(err)
			}
			if par.Embeddings != seq.Embeddings {
				t.Errorf("trial %d cfg %+v: split run %d embeddings, sequential %d",
					trial, cfg, par.Embeddings, seq.Embeddings)
			}
		}
	}
}

// TestParallelCapExactUnderContention stresses the CAS accept loop: a
// dense unlabeled workload where all workers race to a small cap must
// report exactly the cap, every time — counting only, and through a run
// sink, which is handed exactly the cap (the last run cut short: the
// leaf runs here are 10 long and the cap is not a multiple of 10) in
// calls that never overlap. The sink's counter is a plain int, so under
// -race (make race-stress) an unserialized call is a reported race as
// well as a failed assertion.
func TestParallelCapExactUnderContention(t *testing.T) {
	// Triangle query in K12: 12*11*10 = 1320 embeddings, found almost
	// instantly by every worker at once.
	var edges [][2]graph.Vertex
	for i := 0; i < 12; i++ {
		for j := i + 1; j < 12; j++ {
			edges = append(edges, [2]graph.Vertex{graph.Vertex(i), graph.Vertex(j)})
		}
	}
	g := graph.MustFromEdges(make([]graph.Label, 12), edges)
	q := graph.MustFromEdges(make([]graph.Label, 3), [][2]graph.Vertex{{0, 1}, {1, 2}, {0, 2}})
	cfg := Config{Filter: filter.LDF, Order: order.GQL, Local: enumerate.Intersect}
	const cap = 137
	for _, workers := range []int{1, 2, 4, 8} {
		for _, withSink := range []bool{false, true} {
			for rep := 0; rep < 20; rep++ {
				limits := Limits{MaxEmbeddings: cap, Parallel: workers}
				var inSink atomic.Bool
				taken, calls, short := 0, 0, 0
				if withSink {
					limits.OnRun = func(m []uint32, u graph.Vertex, vs []uint32) int {
						if !inSink.CompareAndSwap(false, true) {
							t.Error("sink calls overlap")
						}
						calls++
						taken += len(vs)
						if len(vs) < 10 {
							short++
						}
						for _, v := range vs {
							m[u] = v
							if !validEmbedding(q, g, m) {
								t.Errorf("run hands over %v, not an embedding", m)
							}
						}
						inSink.Store(false)
						return len(vs)
					}
				}
				res, err := Match(q, g, cfg, limits)
				if err != nil {
					t.Fatal(err)
				}
				if res.Embeddings != cap || !res.LimitHit {
					t.Fatalf("workers=%d sink=%v rep %d: %d embeddings (LimitHit %v), want exactly %d",
						workers, withSink, rep, res.Embeddings, res.LimitHit, cap)
				}
				if withSink && (taken != cap || short == 0 || calls >= cap) {
					t.Fatalf("workers=%d rep %d: sink took %d embeddings in %d calls (%d shorter than a full run), want %d with the cap inside a run",
						workers, rep, taken, calls, short, cap)
				}
			}
		}
	}
}

// TestParallelOnMatchSlicesAreStable pins the OnMatch contract under
// parallel execution: the slice is the calling worker's own and no
// other worker touches it during the call, so a collector that copies
// it there ends up with valid, pairwise-distinct embeddings.
func TestParallelOnMatchSlicesAreStable(t *testing.T) {
	q, g := testutil.PaperQuery(), testutil.PaperData()
	rng := rand.New(rand.NewSource(13))
	dg := testutil.RandomGraph(rng, 40, 140, 2)
	var dq *graph.Graph
	for dq == nil {
		dq = testutil.RandomConnectedQuery(rng, dg, 4)
	}
	for _, wl := range []struct {
		q, g *graph.Graph
	}{{q, g}, {dq, dg}} {
		cfg := Config{Filter: filter.GQL, Order: order.GQL, Local: enumerate.Intersect}
		var stored [][]uint32
		res, err := Match(wl.q, wl.g, cfg, Limits{Parallel: 4, OnMatch: func(m []uint32) bool {
			stored = append(stored, append([]uint32(nil), m...))
			return true
		}})
		if err != nil {
			t.Fatal(err)
		}
		if uint64(len(stored)) != res.Embeddings {
			t.Fatalf("stored %d slices, result reports %d embeddings", len(stored), res.Embeddings)
		}
		seen := make(map[string]bool)
		for _, m := range stored {
			if !validEmbedding(wl.q, wl.g, m) {
				t.Fatalf("stored slice %v is not a valid embedding (written during the call?)", m)
			}
			key := string(uint32SliceBytes(m))
			if seen[key] {
				t.Fatalf("duplicate stored embedding %v", m)
			}
			seen[key] = true
		}
	}
}

// TestParallelOnMatchAllocs: a callback that does not keep the slice
// costs no allocation per embedding at any worker count — the parallel
// runner passes the engine's slice through, as the sequential one does.
func TestParallelOnMatchAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	g := testutil.RandomGraph(rng, 60, 400, 1)
	q := graph.MustFromEdges(make([]graph.Label, 4), [][2]graph.Vertex{{0, 1}, {1, 2}, {2, 3}})
	plan, err := Preprocess(q, g, Config{Filter: filter.LDF, Order: order.GQL, Local: enumerate.Intersect}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4} {
		var embeddings uint64
		run := func(cap uint64) {
			res, err := MatchPlan(plan, Limits{Parallel: workers, MaxEmbeddings: cap,
				OnMatch: func(m []uint32) bool { return len(m) == 4 }})
			if err != nil {
				t.Fatal(err)
			}
			embeddings = res.Embeddings
		}
		// The same run capped at one embedding pays every per-run
		// allocation (engines, deques, goroutines); what the full run
		// allocates beyond it is per embedding.
		base := testing.AllocsPerRun(10, func() { run(1) })
		full := testing.AllocsPerRun(10, func() { run(0) })
		if embeddings < 10000 {
			t.Fatalf("fixture: %d embeddings", embeddings)
		}
		if perEmbedding := (full - base) / float64(embeddings); perEmbedding > 0.001 {
			t.Errorf("workers=%d: %.0f allocs for %d embeddings against %.0f for one: %.4f per embedding, want 0",
				workers, full, embeddings, base, perEmbedding)
		}
	}
}

// validEmbedding checks labels, injectivity, and every query edge.
func validEmbedding(q, g *graph.Graph, m []uint32) bool {
	if len(m) != q.NumVertices() {
		return false
	}
	used := make(map[uint32]bool, len(m))
	for u, v := range m {
		if int(v) >= g.NumVertices() || used[v] || q.Label(graph.Vertex(u)) != g.Label(v) {
			return false
		}
		used[v] = true
	}
	for u := 0; u < q.NumVertices(); u++ {
		for _, un := range q.Neighbors(graph.Vertex(u)) {
			if !g.HasEdge(m[u], m[un]) {
				return false
			}
		}
	}
	return true
}

func uint32SliceBytes(m []uint32) []byte {
	b := make([]byte, 0, len(m)*4)
	for _, v := range m {
		b = append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
	}
	return b
}

// TestParallelProfileMerging: per-worker profiles merge into one result
// profile whose extension totals match the sequential search shape.
func TestParallelProfileMerging(t *testing.T) {
	q, g := testutil.PaperQuery(), testutil.PaperData()
	cfg := Config{Filter: filter.GQL, Order: order.GQL, Local: enumerate.Intersect}
	res, err := Match(q, g, cfg, Limits{Parallel: 3, Profile: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Profile == nil {
		t.Fatal("parallel run with Profile set returned no profile")
	}
	if res.Profile.TotalNodes() == 0 {
		t.Error("merged profile has zero nodes")
	}
}

// TestTaskDeque exercises the owner-pop / chunked-steal protocol.
func TestTaskDeque(t *testing.T) {
	d := &taskDeque{}
	for i := 0; i < 10; i++ {
		d.push(enumTask{uint32(i)})
	}
	// Owner pops from the tail.
	if tk, ok := d.pop(); !ok || tk[0] != 9 {
		t.Fatalf("pop = %v, %v; want root 9", tk, ok)
	}
	// Thief takes half (rounded up) from the head: 9 remain -> 5 stolen.
	chunk := d.stealHalf()
	if len(chunk) != 5 || chunk[0][0] != 0 || chunk[4][0] != 4 {
		t.Fatalf("stealHalf = %v", chunk)
	}
	// Remaining: roots 5..8, owner side.
	var rest []uint32
	for {
		tk, ok := d.pop()
		if !ok {
			break
		}
		rest = append(rest, tk[0])
	}
	if len(rest) != 4 || rest[0] != 8 || rest[3] != 5 {
		t.Fatalf("rest = %v", rest)
	}
	if d.stealHalf() != nil {
		t.Error("steal from empty deque should return nil")
	}
	if _, ok := d.pop(); ok {
		t.Error("pop from empty deque should fail")
	}
}
