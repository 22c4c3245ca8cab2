package service

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"subgraphmatching/internal/core"
	"subgraphmatching/internal/graph"
	"subgraphmatching/internal/testutil"
)

// newTestService builds a service over one registered random graph.
func newTestService(t *testing.T, cfg Config) (*Service, *graph.Graph) {
	t.Helper()
	s := New(cfg)
	g := testutil.RandomGraph(rand.New(rand.NewSource(7)), 300, 900, 3)
	if _, err := s.RegisterGraph("main", g, false); err != nil {
		t.Fatal(err)
	}
	return s, g
}

// collectSink gathers embeddings into a canonical byte serialization so
// two runs can be compared byte-for-byte.
type collectSink struct {
	mu   sync.Mutex
	rows [][]byte
}

// run is the sink in the run form Stream takes; fn is its per-embedding
// form, for Request.OnMatch.
func (c *collectSink) run(m []uint32, u graph.Vertex, vs []uint32) int {
	return perEmbedding(c.fn)(m, u, vs)
}

// perEmbedding is the run sink that shows fn the embeddings of a run one
// after the other; fn declines one (and stops the search) by returning
// false.
func perEmbedding(fn func(m []uint32) bool) func([]uint32, graph.Vertex, []uint32) int {
	return func(m []uint32, u graph.Vertex, vs []uint32) int {
		for i, v := range vs {
			m[u] = v
			if !fn(m) {
				return i
			}
		}
		return len(vs)
	}
}

func (c *collectSink) fn(m []uint32) bool {
	row := make([]byte, 4*len(m))
	for i, v := range m {
		binary.LittleEndian.PutUint32(row[4*i:], v)
	}
	c.mu.Lock()
	c.rows = append(c.rows, row)
	c.mu.Unlock()
	return true
}

func (c *collectSink) canonical() []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	sort.Slice(c.rows, func(i, j int) bool { return bytes.Compare(c.rows[i], c.rows[j]) < 0 })
	return bytes.Join(c.rows, nil)
}

// TestSubmitCachedMatchesFreshAcrossPresets is the cache-correctness
// acceptance test: for every algorithm preset, the embeddings served
// from a cached plan must be byte-identical to a fresh uncached run.
func TestSubmitCachedMatchesFreshAcrossPresets(t *testing.T) {
	s, g := newTestService(t, Config{})
	q := testutil.RandomConnectedQuery(rand.New(rand.NewSource(11)), g, 5)
	ctx := context.Background()
	for _, algo := range core.Algorithms() {
		algo := algo
		t.Run(algo.String(), func(t *testing.T) {
			var fresh collectSink
			req := Request{Graph: "main", Query: q, Algorithm: algo, NoCache: true}
			freshResp, err := s.Stream(ctx, req, fresh.run)
			if err != nil {
				t.Fatalf("fresh: %v", err)
			}
			// Twice through the cache: the first Submit warms it (miss),
			// the second must hit.
			for round, wantHit := range []bool{false, true} {
				var cached collectSink
				req := Request{Graph: "main", Query: q, Algorithm: algo}
				resp, err := s.Stream(ctx, req, cached.run)
				if err != nil {
					t.Fatalf("cached round %d: %v", round, err)
				}
				if resp.CacheHit != wantHit {
					t.Fatalf("round %d CacheHit = %v, want %v", round, resp.CacheHit, wantHit)
				}
				if resp.Result.Embeddings != freshResp.Result.Embeddings {
					t.Fatalf("round %d embeddings = %d, fresh = %d",
						round, resp.Result.Embeddings, freshResp.Result.Embeddings)
				}
				if got, want := cached.canonical(), fresh.canonical(); !bytes.Equal(got, want) {
					t.Fatalf("round %d: cached embeddings differ from fresh (%d vs %d bytes)",
						round, len(got), len(want))
				}
				if resp.CacheHit && resp.Result.PreprocessTime() != 0 {
					t.Fatal("a cache hit must report zero preprocessing time")
				}
			}
		})
	}
}

func TestSubmitCacheAccountingAndStats(t *testing.T) {
	s, g := newTestService(t, Config{PlanCacheSize: 8, MaxInFlight: 4})
	rng := rand.New(rand.NewSource(3))
	q := testutil.RandomConnectedQuery(rng, g, 4)
	ctx := context.Background()
	req := Request{Graph: "main", Query: q, Algorithm: core.GraphQL}
	// The worker count is not part of the plan key: the GQL plan a
	// parallel=4 request builds serves the parallel=1 and default
	// requests after it.
	for i, parallel := range []int{4, 1, 0} {
		req.Parallel = parallel
		resp, err := s.Submit(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if want := i > 0; resp.CacheHit != want {
			t.Fatalf("submit %d CacheHit = %v, want %v", i, resp.CacheHit, want)
		}
	}
	st := s.Stats()
	if st.Cache.Hits != 2 || st.Cache.Misses != 1 || st.Cache.Size != 1 {
		t.Fatalf("cache stats = %+v, want 2 hits 1 miss 1 entry", st.Cache)
	}
	if len(st.Workloads) != 1 {
		t.Fatalf("workloads = %+v, want one", st.Workloads)
	}
	w := st.Workloads[0]
	if w.Graph != "main" || w.Algorithm != core.GraphQL.String() {
		t.Fatalf("workload key = %q/%q", w.Graph, w.Algorithm)
	}
	if w.Queries != 3 || w.CacheHits != 2 || w.Rejected != 0 || w.Errors != 0 {
		t.Fatalf("workload = %+v, want 3 queries 2 hits", w)
	}
	if w.P50 <= 0 || w.P99 < w.P50 {
		t.Fatalf("latency percentiles = p50 %v p99 %v", w.P50, w.P99)
	}
	if st.Admission.Capacity <= 0 || st.Admission.InUse != 0 || st.Admission.Queued != 0 {
		t.Fatalf("admission = %+v", st.Admission)
	}
}

// TestRegisterUnregisterChurnAccounting drives the serving-layer churn
// the plan-cache leak fix targets: ephemeral graph names registered,
// queried once (inserting a plan), and unregistered. Every insert must
// be reconciled as purged, and the cache must end empty — with the
// stateless liveGen fence there is no per-name residue to leak.
func TestRegisterUnregisterChurnAccounting(t *testing.T) {
	s, g := newTestService(t, Config{PlanCacheSize: 8})
	q := testutil.RandomConnectedQuery(rand.New(rand.NewSource(13)), g, 4)
	ctx := context.Background()
	const cycles = 30
	for i := 0; i < cycles; i++ {
		name := fmt.Sprintf("ephemeral-%d", i)
		if _, err := s.RegisterGraph(name, g, false); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Submit(ctx, Request{Graph: name, Query: q, Algorithm: core.GraphQL}); err != nil {
			t.Fatal(err)
		}
		if _, err := s.UnregisterGraph(name); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.Cache.Size != 0 {
		t.Fatalf("cache size after churn = %d, want 0", st.Cache.Size)
	}
	if st.Cache.Purged != cycles {
		t.Fatalf("purged = %d, want %d", st.Cache.Purged, cycles)
	}
	if st.Cache.Evictions != 0 {
		t.Fatalf("evictions = %d, want 0 (cache never filled)", st.Cache.Evictions)
	}
	// Re-registering a previously churned name must serve normally: the
	// fence is the live generation, not a sticky per-name floor.
	if _, err := s.RegisterGraph("ephemeral-0", g, false); err != nil {
		t.Fatal(err)
	}
	resp, err := s.Submit(ctx, Request{Graph: "ephemeral-0", Query: q, Algorithm: core.GraphQL})
	if err != nil {
		t.Fatal(err)
	}
	if resp.CacheHit {
		t.Fatal("first query after re-register must be a miss")
	}
	if got := s.Stats().Cache.Size; got != 1 {
		t.Fatalf("re-registered name's plan must cache, size = %d", got)
	}
}

func TestSubmitDistinctConfigsGetDistinctPlans(t *testing.T) {
	s, g := newTestService(t, Config{})
	q := testutil.RandomConnectedQuery(rand.New(rand.NewSource(5)), g, 4)
	ctx := context.Background()
	for _, algo := range []core.Algorithm{core.GraphQL, core.CFL, core.RI} {
		if _, err := s.Submit(ctx, Request{Graph: "main", Query: q, Algorithm: algo}); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.Cache.Size != 3 || st.Cache.Hits != 0 || st.Cache.Misses != 3 {
		t.Fatalf("cache = %+v, want 3 distinct entries, no hits", st.Cache)
	}
}

func TestHotSwapInvalidatesCachedPlans(t *testing.T) {
	s, _ := newTestService(t, Config{})
	// Swap in a tiny graph the original query still fits: a triangle.
	tri, err := graph.FromEdges([]graph.Label{0, 0, 0}, [][2]graph.Vertex{{0, 1}, {1, 2}, {0, 2}})
	if err != nil {
		t.Fatal(err)
	}
	q, err := graph.FromEdges([]graph.Label{0, 0, 0}, [][2]graph.Vertex{{0, 1}, {1, 2}, {0, 2}})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	req := Request{Graph: "main", Query: q, Algorithm: core.GraphQL}
	before, err := s.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.RegisterGraph("main", tri, true); err != nil {
		t.Fatal(err)
	}
	after, err := s.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if after.CacheHit {
		t.Fatal("a hot swap must invalidate cached plans (generation key)")
	}
	if after.Result.Embeddings != 6 {
		t.Fatalf("triangle-in-triangle embeddings = %d, want 6", after.Result.Embeddings)
	}
	if before.Result.Embeddings == after.Result.Embeddings {
		t.Skip("random graph coincidentally matched the triangle count")
	}
}

func TestSubmitTypedValidationErrors(t *testing.T) {
	s, g := newTestService(t, Config{})
	ctx := context.Background()
	three := []graph.Label{0, 0, 0}
	disconnected, _ := graph.FromEdges(three, [][2]graph.Vertex{{0, 1}})
	empty, _ := graph.FromEdges(nil, nil)
	big := testutil.RandomGraph(rand.New(rand.NewSource(9)), g.NumVertices()+10, 2*g.NumVertices(), 3)
	badLabel, _ := graph.FromEdges([]graph.Label{0, 99}, [][2]graph.Vertex{{0, 1}})
	ok := testutil.RandomConnectedQuery(rand.New(rand.NewSource(2)), g, 3)

	cases := []struct {
		name  string
		req   Request
		wants error
	}{
		{"unknown graph", Request{Graph: "nope", Query: ok}, ErrUnknownGraph},
		{"nil query", Request{Graph: "main"}, ErrNilQuery},
		{"empty query", Request{Graph: "main", Query: empty}, core.ErrEmptyQuery},
		{"disconnected query", Request{Graph: "main", Query: disconnected}, core.ErrDisconnectedQuery},
		{"query too large", Request{Graph: "main", Query: big}, core.ErrQueryTooLarge},
		{"unknown label", Request{Graph: "main", Query: badLabel}, core.ErrUnknownLabel},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			resp, err := s.Submit(ctx, c.req)
			if !errors.Is(err, c.wants) {
				t.Fatalf("err = %v, want %v", err, c.wants)
			}
			if resp != nil {
				t.Fatal("error paths must return a nil response")
			}
		})
	}
}

func TestSubmitAfterCloseFails(t *testing.T) {
	s, g := newTestService(t, Config{})
	q := testutil.RandomConnectedQuery(rand.New(rand.NewSource(2)), g, 3)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(context.Background(), Request{Graph: "main", Query: q}); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
}

func TestStreamNilSinkRejected(t *testing.T) {
	s, g := newTestService(t, Config{})
	q := testutil.RandomConnectedQuery(rand.New(rand.NewSource(2)), g, 3)
	if _, err := s.Stream(context.Background(), Request{Graph: "main", Query: q}, nil); !errors.Is(err, ErrNilCallback) {
		t.Fatalf("err = %v, want ErrNilCallback", err)
	}
}

func TestStreamEarlyStop(t *testing.T) {
	s, g := newTestService(t, Config{})
	q := testutil.RandomConnectedQuery(rand.New(rand.NewSource(4)), g, 3)
	var n int
	resp, err := s.Stream(context.Background(), Request{Graph: "main", Query: q, Algorithm: core.GraphQL},
		func(_ []uint32, _ graph.Vertex, vs []uint32) int {
			take := min(len(vs), 3-n)
			n += take
			return take
		})
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("sink took %d embeddings, want exactly 3", n)
	}
	if resp.Result.Embeddings != 3 {
		t.Fatalf("embeddings = %d, want 3 (stopped early)", resp.Result.Embeddings)
	}
}

// blockOn returns a sink that signals occupancy on its first call and
// then blocks until release is closed — it parks a request inside
// enumeration while holding its admission slot.
func blockOn(occupied chan<- struct{}, release <-chan struct{}) func([]uint32, graph.Vertex, []uint32) int {
	var once sync.Once
	return func(_ []uint32, _ graph.Vertex, vs []uint32) int {
		once.Do(func() { close(occupied) })
		<-release
		return len(vs)
	}
}

func TestOverloadReturnsTypedErrors(t *testing.T) {
	s, g := newTestService(t, Config{
		MaxInFlight:  1,
		MaxQueue:     1,
		MaxQueueWait: 50 * time.Millisecond,
	})
	q := testutil.RandomConnectedQuery(rand.New(rand.NewSource(4)), g, 3)
	ctx := context.Background()
	req := Request{Graph: "main", Query: q, Algorithm: core.GraphQL}

	occupied := make(chan struct{})
	release := make(chan struct{})
	blockerDone := make(chan error, 1)
	go func() {
		_, err := s.Stream(ctx, req, blockOn(occupied, release))
		blockerDone <- err
	}()
	<-occupied

	// The one queue slot: a waiter that will time out.
	waiterDone := make(chan error, 1)
	go func() {
		_, err := s.Submit(ctx, req)
		waiterDone <- err
	}()
	// Wait until it is actually queued, then overflow the queue.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if st := s.Stats(); st.Admission.Queued >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("waiter never queued")
		}
		time.Sleep(time.Millisecond)
	}
	_, err := s.Submit(ctx, req)
	if !errors.Is(err, ErrQueueFull) || !errors.Is(err, ErrOverloaded) {
		t.Fatalf("overflow err = %v, want ErrQueueFull (ErrOverloaded)", err)
	}
	if err := <-waiterDone; !errors.Is(err, ErrQueueTimeout) || !errors.Is(err, ErrOverloaded) {
		t.Fatalf("waiter err = %v, want ErrQueueTimeout (ErrOverloaded)", err)
	}
	close(release)
	if err := <-blockerDone; err != nil {
		t.Fatalf("blocker err = %v", err)
	}
	st := s.Stats()
	var rejected uint64
	for _, w := range st.Workloads {
		rejected += w.Rejected
	}
	if rejected != 2 {
		t.Fatalf("rejected = %d, want 2", rejected)
	}
}

// TestSubmitClampsParallelToAdmission pins the admission invariant: a
// request asking for a million workers holds at most MaxInFlight
// admission units, so it must also run at most that many enumeration
// workers — not one goroutine per root candidate. Observed via the
// process goroutine count from inside the (serialized) sink.
func TestSubmitClampsParallelToAdmission(t *testing.T) {
	s, g := newTestService(t, Config{MaxInFlight: 2})
	q := testutil.RandomConnectedQuery(rand.New(rand.NewSource(4)), g, 3)
	baseline := runtime.NumGoroutine()
	maxSeen := 0
	resp, err := s.Stream(context.Background(), Request{
		Graph:     "main",
		Query:     q,
		Algorithm: core.GraphQL,
		Parallel:  1 << 20,
	}, func(_ []uint32, _ graph.Vertex, vs []uint32) int {
		if n := runtime.NumGoroutine(); n > maxSeen {
			maxSeen = n
		}
		return len(vs)
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Result.Embeddings == 0 {
		t.Fatal("test needs embeddings to observe the worker pool")
	}
	// Unclamped, matchParallel spawns a goroutine per root candidate
	// (hundreds on this graph); clamped it runs ≤ MaxInFlight workers.
	if maxSeen > baseline+16 {
		t.Fatalf("observed %d goroutines over a baseline of %d; parallelism not clamped to admission weight",
			maxSeen, baseline)
	}
}

func TestSubmitContextDeadline(t *testing.T) {
	s, g := newTestService(t, Config{})
	q := testutil.RandomConnectedQuery(rand.New(rand.NewSource(4)), g, 3)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	_, err := s.Submit(ctx, Request{Graph: "main", Query: q})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
}

func TestSubmitContextCancelMidSearch(t *testing.T) {
	s := New(Config{})
	g := testutil.RandomGraph(rand.New(rand.NewSource(21)), 500, 12000, 1)
	if _, err := s.RegisterGraph("dense", g, false); err != nil {
		t.Fatal(err)
	}
	q := testutil.RandomConnectedQuery(rand.New(rand.NewSource(22)), g, 6)
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	var once sync.Once
	done := make(chan error, 1)
	go func() {
		_, err := s.Stream(ctx, Request{Graph: "dense", Query: q, Algorithm: core.GraphQL},
			func(_ []uint32, _ graph.Vertex, vs []uint32) int { once.Do(func() { close(started) }); return len(vs) })
		done <- err
	}()
	select {
	case <-started:
	case err := <-done:
		t.Fatalf("finished before producing an embedding: %v", err)
	}
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancellation did not stop the search")
	}
}

// TestConcurrentSubmitStress is the -race acceptance test: 100
// goroutines hammer Submit across shared cached plans, mixed presets,
// parallel enumeration, streaming, and a mid-flight hot swap.
func TestConcurrentSubmitStress(t *testing.T) {
	s, g := newTestService(t, Config{MaxInFlight: 8, MaxQueue: 256, MaxQueueWait: time.Minute, PlanCacheSize: 4})
	rng := rand.New(rand.NewSource(31))
	queries := make([]*graph.Graph, 6)
	for i := range queries {
		queries[i] = testutil.RandomConnectedQuery(rng, g, 3+i%3)
	}
	algos := []core.Algorithm{core.GraphQL, core.CFL, core.RI, core.Optimized}
	ctx := context.Background()

	// Ground truth per (query, algo) from uncached runs.
	want := make(map[int]uint64)
	for qi, q := range queries {
		resp, err := s.Submit(ctx, Request{Graph: "main", Query: q, Algorithm: algos[qi%len(algos)], NoCache: true})
		if err != nil {
			t.Fatal(err)
		}
		want[qi] = resp.Result.Embeddings
	}

	const goroutines = 100
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for i := 0; i < goroutines; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			qi := i % len(queries)
			req := Request{
				Graph:     "main",
				Query:     queries[qi],
				Algorithm: algos[qi%len(algos)],
				Parallel:  1 + i%3,
			}
			var resp *Response
			var err error
			if i%4 == 0 {
				var sink collectSink
				resp, err = s.Stream(ctx, req, sink.run)
			} else {
				resp, err = s.Submit(ctx, req)
			}
			if err != nil {
				errs <- err
				return
			}
			if resp.Result.Embeddings != want[qi] {
				t.Errorf("goroutine %d: embeddings = %d, want %d", i, resp.Result.Embeddings, want[qi])
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("submit error: %v", err)
	}
	st := s.Stats()
	var queries_ uint64
	for _, w := range st.Workloads {
		queries_ += w.Queries
	}
	if queries_ != goroutines+uint64(len(queries)) {
		t.Fatalf("queries = %d, want %d", queries_, goroutines+len(queries))
	}
	if st.Admission.InUse != 0 || st.Admission.Queued != 0 {
		t.Fatalf("admission not drained: %+v", st.Admission)
	}
}
