package service

import (
	"context"
	"errors"
	"math/rand"
	"strings"
	"testing"
	"time"

	"subgraphmatching/internal/core"
	"subgraphmatching/internal/enumerate"
	"subgraphmatching/internal/graph"
	"subgraphmatching/internal/obs"
	"subgraphmatching/internal/testutil"
)

// TestSubmitBatchLeavesCallerSliceUntouched: the clamp to the admitted
// budget happens on the spine's private copy of each item. The run
// itself is still held to MaxInFlight.
func TestSubmitBatchLeavesCallerSliceUntouched(t *testing.T) {
	s, g := newTestService(t, Config{MaxInFlight: 2})
	q := testutil.RandomConnectedQuery(rand.New(rand.NewSource(4)), g, 3)
	items := []Request{{Graph: "main", Query: q, Algorithm: core.GraphQL, Parallel: 64}}
	results, err := s.SubmitBatch(context.Background(), items)
	if err != nil || results[0].Err != nil {
		t.Fatalf("batch: %v / %v", err, results[0].Err)
	}
	if items[0].Parallel != 64 {
		t.Errorf("SubmitBatch rewrote the caller's item to Parallel=%d", items[0].Parallel)
	}
	res := results[0].Resp.Result
	if n := len(res.Workers); n < 1 || n > 2 {
		t.Errorf("enumeration ran on %d workers, want 1..2", n)
	}
}

// explainRecord returns the flight recorder's newest record of an
// Explain call, from the error ring when failed is set.
func explainRecord(t *testing.T, s *Service, failed bool) (span *obs.Span, errText string) {
	t.Helper()
	if failed {
		for _, rec := range s.Flights().Errors() {
			if strings.HasSuffix(rec.Algo, "(explain)") {
				return rec.Span, rec.Err
			}
		}
	} else {
		for _, b := range s.Flights().Snapshot() {
			for _, rec := range b.Records {
				if strings.HasSuffix(rec.Algo, "(explain)") {
					return rec.Span, rec.Err
				}
			}
		}
	}
	t.Fatalf("no explain flight on the recorder (failed=%v)", failed)
	return nil, ""
}

// TestSubmitContainsPanics: a sink that panics — on the request's
// goroutine at Parallel 1, on an enumeration worker at Parallel 2 — fails
// the request with core.ErrInternal instead of the process or the
// connection: the error is counted, the error ring holds the panic and
// its stack, admission is back at 0 in use, and the next request
// succeeds.
func TestSubmitContainsPanics(t *testing.T) {
	for _, parallel := range []int{1, 2} {
		s, g := newTestService(t, Config{MaxInFlight: 2})
		q := testutil.RandomConnectedQuery(rand.New(rand.NewSource(4)), g, 3)
		req := Request{Graph: "main", Query: q, Algorithm: core.GraphQL, Parallel: parallel,
			OnRun: func([]uint32, graph.Vertex, []uint32) int { panic("sink failed") }}
		if _, err := s.Submit(context.Background(), req); !errors.Is(err, core.ErrInternal) {
			t.Fatalf("parallel=%d: err = %v, want ErrInternal", parallel, err)
		}
		if n := s.metrics.errors.Value("main", req.algoName()); n != 1 {
			t.Errorf("parallel=%d: request errors = %d, want 1", parallel, n)
		}
		recs := s.Flights().Errors()
		if len(recs) != 1 || !strings.Contains(recs[0].Err, "sink failed") || !strings.Contains(recs[0].Err, "goroutine ") {
			t.Errorf("parallel=%d: error ring %+v, want the panic with its stack", parallel, recs)
		}
		if n := s.Stats().Admission.InUse; n != 0 {
			t.Errorf("parallel=%d: %d admission units still in use", parallel, n)
		}
		req.OnRun = nil
		if resp, err := s.Submit(context.Background(), req); err != nil || resp.Result.Embeddings == 0 {
			t.Errorf("parallel=%d: next request: %v", parallel, err)
		}
	}
}

// TestPanickingRunEvictsItsPlan: a run that panics on a cached plan —
// in the sink on the request's goroutine at Parallel 1, on a worker at
// Parallel 2 — takes the plan out of the cache, so the next request for
// the key is a miss that rebuilds it, and every insert is still
// accounted for exactly once.
func TestPanickingRunEvictsItsPlan(t *testing.T) {
	for _, parallel := range []int{1, 2} {
		s, g := newTestService(t, Config{MaxInFlight: 2})
		q := testutil.RandomConnectedQuery(rand.New(rand.NewSource(4)), g, 3)
		req := Request{Graph: "main", Query: q, Algorithm: core.GraphQL, Parallel: parallel}
		if _, err := s.Submit(context.Background(), req); err != nil {
			t.Fatal(err)
		}
		if resp, err := s.Submit(context.Background(), req); err != nil || !resp.CacheHit {
			t.Fatalf("parallel=%d: second request hit=%v err=%v, want a cache hit", parallel, resp != nil && resp.CacheHit, err)
		}
		req.OnRun = func([]uint32, graph.Vertex, []uint32) int { panic("sink failed") }
		if _, err := s.Submit(context.Background(), req); !errors.Is(err, core.ErrInternal) {
			t.Fatalf("parallel=%d: err = %v, want ErrInternal", parallel, err)
		}
		req.OnRun = nil
		misses := s.Stats().Cache.Misses
		resp, err := s.Submit(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		if st := s.Stats().Cache; resp.CacheHit || st.Misses != misses+1 {
			t.Errorf("parallel=%d: request after the panic hit=%v, misses %d → %d: want a miss", parallel, resp.CacheHit, misses, st.Misses)
		}
		st, inserts := s.Stats().Cache, s.metrics.planBuilds.Value()
		if inserts != 2 || uint64(st.Size)+st.Evictions+st.Purged != inserts {
			t.Errorf("parallel=%d: size %d + evictions %d + purged %d, %d inserts: want 2 inserts, each accounted once",
				parallel, st.Size, st.Evictions, st.Purged, inserts)
		}
	}
}

// TestExplainInvalidQueryCountedAndRecorded: a dry run that fails
// validation moves smatch_request_errors_total and reaches the flight
// recorder's error ring, as the same Submit would.
func TestExplainInvalidQueryCountedAndRecorded(t *testing.T) {
	s, _ := newTestService(t, Config{})
	badLabel, _ := graph.FromEdges([]graph.Label{0, 99}, [][2]graph.Vertex{{0, 1}})
	_, err := s.Explain(context.Background(), Request{Graph: "main", Query: badLabel, Algorithm: core.CFL})
	if !errors.Is(err, core.ErrUnknownLabel) {
		t.Fatalf("err = %v, want ErrUnknownLabel", err)
	}
	if n := s.metrics.errors.Value("main", "CFL"); n != 1 {
		t.Errorf("request errors = %d, want 1", n)
	}
	if _, text := explainRecord(t, s, true); !strings.Contains(text, "label") {
		t.Errorf("error ring holds %q for the invalid explain", text)
	}
}

// saturate parks one request inside enumeration on the service's only
// admission unit and a second in its only queue slot, so the next
// arrival is refused with ErrQueueFull. Both run under algo, so another
// workload's counters stay clean. The returned func lets them go.
func saturate(t *testing.T, s *Service, q *graph.Graph, algo core.Algorithm) (release func()) {
	t.Helper()
	req := Request{Graph: "main", Query: q, Algorithm: algo}
	occupied, unblock := make(chan struct{}), make(chan struct{})
	done := make(chan error, 2)
	go func() {
		_, err := s.Stream(context.Background(), req, blockOn(occupied, unblock))
		done <- err
	}()
	<-occupied
	go func() {
		_, err := s.Submit(context.Background(), req)
		done <- err
	}()
	for deadline := time.Now().Add(5 * time.Second); s.Stats().Admission.Queued < 1; {
		if time.Now().After(deadline) {
			t.Fatal("waiter never queued")
		}
		time.Sleep(time.Millisecond)
	}
	return func() {
		close(unblock)
		for i := 0; i < 2; i++ {
			if err := <-done; err != nil {
				t.Errorf("saturating request: %v", err)
			}
		}
	}
}

// TestExplainRefusalCountedAndRecorded: a dry run refused by admission
// control moves smatch_requests_rejected_total and reaches the error
// ring.
func TestExplainRefusalCountedAndRecorded(t *testing.T) {
	s, g := newTestService(t, Config{MaxInFlight: 1, MaxQueue: 1, MaxQueueWait: time.Minute})
	q := testutil.RandomConnectedQuery(rand.New(rand.NewSource(4)), g, 3)
	release := saturate(t, s, q, core.GraphQL)
	_, err := s.Explain(context.Background(), Request{Graph: "main", Query: q, Algorithm: core.CFL})
	release()
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("err = %v, want ErrQueueFull", err)
	}
	if n := s.metrics.rejected.Value("main", "CFL"); n != 1 {
		t.Errorf("rejected = %d, want 1", n)
	}
	if _, text := explainRecord(t, s, true); !strings.Contains(text, "queue full") {
		t.Errorf("error ring holds %q for the refused explain", text)
	}
}

// entryOutcome is what one entry point did with one request: what it
// returned, and how far it moved the request's (graph, algo) counters.
type entryOutcome struct {
	err        string
	cacheHit   bool
	embeddings uint64
	nodes      uint64
	limitHit   bool
	counters   WorkloadStats
}

func outcomeOf(s *Service, algo string, resp *Response, err error) entryOutcome {
	var o entryOutcome
	if err != nil {
		o.err = err.Error()
	}
	if resp != nil {
		o.cacheHit = resp.CacheHit
		o.embeddings = resp.Result.Embeddings
		o.nodes = resp.Result.Nodes
		o.limitHit = resp.Result.LimitHit
	}
	for _, w := range s.Stats().Workloads {
		if w.Graph == "main" && w.Algorithm == algo {
			o.counters = w
			o.counters.P50, o.counters.P99 = 0, 0
		}
	}
	return o
}

// TestEntryPointsAgree runs each request through Submit, through
// SubmitBatch as a batch of that one item and, where a dry run can meet
// the same fate, through Explain — each against an identically prepared
// service — and holds the three to one answer: the same error, the same
// CacheHit and counts, the same movement of the (graph, algo) counters.
func TestEntryPointsAgree(t *testing.T) {
	g := testutil.RandomGraph(rand.New(rand.NewSource(7)), 300, 900, 3)
	q := testutil.RandomConnectedQuery(rand.New(rand.NewSource(4)), g, 3)
	badLabel, _ := graph.FromEdges([]graph.Label{0, 99}, [][2]graph.Vertex{{0, 1}})
	expired, cancelExpired := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancelExpired()
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()

	cases := []struct {
		name    string
		cfg     Config
		ctx     context.Context
		req     Request
		prepare func(t *testing.T, s *Service) (cleanup func()) // optional
		wantErr error
		// explain: a dry run meets the same fate up to the point where
		// the spine would enumerate, so it must agree on the error,
		// CacheHit and the refusal counters.
		explain bool
		check   func(t *testing.T, o entryOutcome) // optional, on Submit's outcome
	}{
		{name: "nil query", req: Request{Graph: "main", Algorithm: core.CFL},
			wantErr: ErrNilQuery, explain: true},
		{name: "unknown graph", req: Request{Graph: "absent", Query: q, Algorithm: core.CFL},
			wantErr: ErrUnknownGraph, explain: true},
		{name: "invalid query", req: Request{Graph: "main", Query: badLabel, Algorithm: core.CFL},
			wantErr: core.ErrUnknownLabel, explain: true,
			check: func(t *testing.T, o entryOutcome) {
				if o.counters.Errors != 1 {
					t.Errorf("errors = %d, want 1", o.counters.Errors)
				}
			}},
		{name: "queue full", cfg: Config{MaxInFlight: 1, MaxQueue: 1, MaxQueueWait: time.Minute},
			req: Request{Graph: "main", Query: q, Algorithm: core.CFL},
			prepare: func(t *testing.T, s *Service) func() {
				return saturate(t, s, q, core.GraphQL)
			},
			wantErr: ErrQueueFull, explain: true,
			check: func(t *testing.T, o entryOutcome) {
				if o.counters.Rejected != 1 {
					t.Errorf("rejected = %d, want 1", o.counters.Rejected)
				}
			}},
		{name: "expired ctx deadline", ctx: expired, req: Request{Graph: "main", Query: q, Algorithm: core.CFL},
			wantErr: context.DeadlineExceeded,
			check: func(t *testing.T, o entryOutcome) {
				if o.counters.Timeouts != 1 {
					t.Errorf("timeouts = %d, want 1", o.counters.Timeouts)
				}
			}},
		{name: "cancelled ctx", ctx: cancelled, req: Request{Graph: "main", Query: q, Algorithm: core.CFL},
			wantErr: context.Canceled,
			check: func(t *testing.T, o entryOutcome) {
				if o.counters.Errors != 1 {
					t.Errorf("errors = %d, want 1", o.counters.Errors)
				}
			}},
		{name: "embedding cap hit", req: Request{Graph: "main", Query: q, Algorithm: core.CFL, MaxEmbeddings: 1},
			check: func(t *testing.T, o entryOutcome) {
				if !o.limitHit || o.embeddings != 1 || o.counters.LimitHits != 1 {
					t.Errorf("limitHit=%v embeddings=%d limit_hits=%d, want true 1 1",
						o.limitHit, o.embeddings, o.counters.LimitHits)
				}
			}},
		{name: "external engine", req: Request{Graph: "main", Query: q, Algorithm: core.VF2Classic}, explain: true,
			check: func(t *testing.T, o entryOutcome) {
				if o.cacheHit || o.counters.CacheHits != 0 || o.counters.Queries != 1 || o.embeddings == 0 {
					t.Errorf("cacheHit=%v cache_hits=%d queries=%d embeddings=%d, want false 0 1 >0",
						o.cacheHit, o.counters.CacheHits, o.counters.Queries, o.embeddings)
				}
			}},
		{name: "fresh plan", req: Request{Graph: "main", Query: q, Algorithm: core.CFL}, explain: true,
			check: func(t *testing.T, o entryOutcome) {
				if o.cacheHit || o.counters.CacheHits != 0 || o.counters.Queries != 1 {
					t.Errorf("cacheHit=%v cache_hits=%d queries=%d, want false 0 1",
						o.cacheHit, o.counters.CacheHits, o.counters.Queries)
				}
			}},
		{name: "cached plan", req: Request{Graph: "main", Query: q, Algorithm: core.CFL}, explain: true,
			prepare: func(t *testing.T, s *Service) func() {
				// Warm the plan under a request the counters do not see.
				if _, err := s.Explain(context.Background(), Request{Graph: "main", Query: q, Algorithm: core.CFL}); err != nil {
					t.Fatal(err)
				}
				return nil
			},
			check: func(t *testing.T, o entryOutcome) {
				if !o.cacheHit || o.counters.CacheHits != 1 {
					t.Errorf("cacheHit=%v cache_hits=%d, want true 1", o.cacheHit, o.counters.CacheHits)
				}
			}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ctx := c.ctx
			if ctx == nil {
				ctx = context.Background()
			}
			algo := c.req.algoName()
			// through runs one entry point against a freshly prepared
			// service.
			through := func(entry func(s *Service) (*Response, error)) entryOutcome {
				s := New(c.cfg)
				if _, err := s.RegisterGraph("main", g, false); err != nil {
					t.Fatal(err)
				}
				var cleanup func()
				if c.prepare != nil {
					cleanup = c.prepare(t, s)
				}
				resp, err := entry(s)
				if cleanup != nil {
					cleanup()
				}
				if !errors.Is(err, c.wantErr) {
					t.Fatalf("err = %v, want %v", err, c.wantErr)
				}
				return outcomeOf(s, algo, resp, err)
			}

			submit := through(func(s *Service) (*Response, error) { return s.Submit(ctx, c.req) })
			if c.check != nil {
				c.check(t, submit)
			}
			batch := through(func(s *Service) (*Response, error) {
				results, err := s.SubmitBatch(ctx, []Request{c.req})
				if err != nil {
					return nil, err
				}
				return results[0].Resp, results[0].Err
			})
			if batch != submit {
				t.Errorf("SubmitBatch of the one item disagrees with Submit:\n batch  %+v\n submit %+v", batch, submit)
			}
			if !c.explain {
				return
			}
			explain := through(func(s *Service) (*Response, error) {
				resp, err := s.Explain(ctx, c.req)
				if err != nil {
					return nil, err
				}
				// Carry CacheHit over; a dry run has no counts.
				return &Response{Result: &core.Result{}, CacheHit: resp.CacheHit}, nil
			})
			if explain.err != submit.err || explain.cacheHit != submit.cacheHit ||
				explain.counters.Errors != submit.counters.Errors ||
				explain.counters.Rejected != submit.counters.Rejected ||
				explain.counters.Timeouts != submit.counters.Timeouts {
				t.Errorf("Explain disagrees with Submit:\n explain %+v\n submit  %+v", explain, submit)
			}
		})
	}
}

// TestRefusedTupleCachesNothing: a Custom tuple the engine cannot run —
// here DP-iso's adaptive order over Scan local candidates, and Glasgow
// asked for homomorphisms — is refused
// with the typed error before the plan cache is asked, on Submit and
// on Explain alike, so every cache counter stays where it was and a
// retry is refused the same way. A preset whose failing sets a large
// query would break leaves them off and answers.
func TestRefusedTupleCachesNothing(t *testing.T) {
	s, g := newTestService(t, Config{})
	q := testutil.RandomConnectedQuery(rand.New(rand.NewSource(4)), g, 4)
	if _, err := s.Submit(context.Background(), Request{Graph: "main", Query: q, Algorithm: core.GraphQL}); err != nil {
		t.Fatal(err)
	}
	before, builds := s.Stats().Cache, s.metrics.planBuilds.Value()
	bad := core.PresetConfig(core.DPIso, q, g)
	bad.Local = enumerate.Scan
	for _, cfg := range []core.Config{bad, {UseGlasgow: true, Homomorphism: true}} {
		req := Request{Graph: "main", Query: q, Custom: &cfg}
		for try := 0; try < 2; try++ {
			if _, err := s.Submit(context.Background(), req); !errors.Is(err, enumerate.ErrUnsupported) {
				t.Fatalf("%+v try %d: Submit err = %v, want ErrUnsupported", cfg, try, err)
			}
			if _, err := s.Explain(context.Background(), req); !errors.Is(err, enumerate.ErrUnsupported) {
				t.Fatalf("%+v try %d: Explain err = %v, want ErrUnsupported", cfg, try, err)
			}
		}
	}
	if after := s.Stats().Cache; after != before || s.metrics.planBuilds.Value() != builds {
		t.Errorf("cache %+v → %+v, plan builds %d → %d: a refused tuple moved them", before, after, builds, s.metrics.planBuilds.Value())
	}

	path := func(n int) *graph.Graph {
		b := graph.NewBuilder(n, n-1)
		for i := 0; i < n; i++ {
			b.AddVertex(0)
			if i > 0 {
				b.AddEdge(graph.Vertex(i-1), graph.Vertex(i))
			}
		}
		return b.MustBuild()
	}
	if _, err := s.RegisterGraph("path", path(300), false); err != nil {
		t.Fatal(err)
	}
	for _, a := range []core.Algorithm{core.Optimized, core.DPIso} {
		for try := 0; try < 2; try++ {
			resp, err := s.Submit(context.Background(), Request{Graph: "path", Query: path(70), Algorithm: a})
			if err != nil || resp.Result.Embeddings != 462 || resp.CacheHit != (try == 1) {
				t.Fatalf("%v try %d: %+v, %v; want 462 embeddings, a cache hit on the retry", a, try, resp, err)
			}
		}
	}
}
