package service

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"subgraphmatching/internal/core"
	"subgraphmatching/internal/graph"
	"subgraphmatching/internal/testutil"
)

// TestBatchMatchesSequentialAcrossPresets is the batch-equivalence
// acceptance grid: for every algorithm preset and every worker count,
// a batch submission must produce byte-identical embeddings AND an
// identical intersection-kernel mix to the same requests submitted
// sequentially. Full enumerations (no embedding cap) make the kernel
// counts schedule-independent, so the mix is comparable exactly.
func TestBatchMatchesSequentialAcrossPresets(t *testing.T) {
	s, g := newTestService(t, Config{})
	q := testutil.RandomConnectedQuery(rand.New(rand.NewSource(11)), g, 5)
	ctx := context.Background()
	for _, algo := range core.Algorithms() {
		external := algo == core.Glasgow || algo == core.VF2Classic || algo == core.Ullmann
		for _, workers := range []int{1, 2, 4, 8} {
			if external && workers > 1 {
				// The external engines are sequential; the grid point
				// would duplicate workers=1.
				continue
			}
			t.Run(fmt.Sprintf("%s/workers=%d", algo, workers), func(t *testing.T) {
				var seq collectSink
				req := Request{Graph: "main", Query: q, Algorithm: algo,
					Parallel: workers, Workers: workers, NoCache: true}
				seqResp, err := s.Stream(ctx, req, seq.run)
				if err != nil {
					t.Fatalf("sequential: %v", err)
				}

				var batched collectSink
				items := []Request{
					{Graph: "main", Query: q, Algorithm: algo,
						Parallel: workers, Workers: workers, OnMatch: batched.fn},
					{Graph: "main", Query: q, Algorithm: algo,
						Parallel: workers, Workers: workers},
				}
				results, err := s.SubmitBatch(ctx, items)
				if err != nil {
					t.Fatalf("batch: %v", err)
				}
				for i, br := range results {
					if br.Err != nil {
						t.Fatalf("item %d: %v", i, br.Err)
					}
					if br.Resp.Result.Embeddings != seqResp.Result.Embeddings {
						t.Fatalf("item %d embeddings = %d, sequential = %d",
							i, br.Resp.Result.Embeddings, seqResp.Result.Embeddings)
					}
					if br.Resp.Result.Kernels != seqResp.Result.Kernels {
						t.Fatalf("item %d kernel mix = %v, sequential = %v",
							i, br.Resp.Result.Kernels, seqResp.Result.Kernels)
					}
				}
				if got, want := batched.canonical(), seq.canonical(); !bytes.Equal(got, want) {
					t.Fatalf("batched embeddings differ from sequential (%d vs %d bytes)",
						len(got), len(want))
				}
			})
		}
	}
}

// TestBatchGroupingOnePlanPerGroup pins the amortization contract:
// however many items a batch carries, each distinct (graph, query,
// config) class builds exactly one plan, the first item of a fresh
// group reports the miss, and the rest report hits — the same sequence
// N sequential Submits would produce.
func TestBatchGroupingOnePlanPerGroup(t *testing.T) {
	s, g := newTestService(t, Config{})
	rng := rand.New(rand.NewSource(23))
	qa := testutil.RandomConnectedQuery(rng, g, 4)
	qb := testutil.RandomConnectedQuery(rng, g, 5)
	ctx := context.Background()

	items := []Request{
		{Graph: "main", Query: qa, Algorithm: core.CFL},
		{Graph: "main", Query: qa, Algorithm: core.CFL}, // dup of 0
		{Graph: "main", Query: qb, Algorithm: core.CFL},
		{Graph: "main", Query: qa, Algorithm: core.GraphQL}, // same query, other config
		{Graph: "main", Query: qa, Algorithm: core.CFL},     // dup of 0
	}
	before := s.metrics.planBuilds.Value()
	results, err := s.SubmitBatch(ctx, items)
	if err != nil {
		t.Fatal(err)
	}
	for i, br := range results {
		if br.Err != nil {
			t.Fatalf("item %d: %v", i, br.Err)
		}
		if br.Index != i {
			t.Fatalf("item %d routed to index %d", i, br.Index)
		}
	}
	if builds := s.metrics.planBuilds.Value() - before; builds != 3 {
		t.Fatalf("batch built %d plans, want 3 (one per distinct group)", builds)
	}
	// Dup items share their group's plan: exactly one miss per group.
	misses := 0
	for _, br := range results {
		if !br.Resp.CacheHit {
			misses++
		}
	}
	if misses != 3 {
		t.Fatalf("%d items reported a cache miss, want 3 (group leaders only)", misses)
	}
	// Identical no-callback items dedup to one execution.
	st := s.Stats()
	if st.Batches.Groups != 3 {
		t.Fatalf("Stats.Batches.Groups = %d, want 3", st.Batches.Groups)
	}
	if st.Batches.Deduped != 2 {
		t.Fatalf("Stats.Batches.Deduped = %d, want 2 (items 1 and 4)", st.Batches.Deduped)
	}
	if results[1].Resp.Result.Embeddings != results[0].Resp.Result.Embeddings {
		t.Fatal("deduplicated item diverged from its leader")
	}
}

// TestStreamedBatchDuplicatesBothStream: two identical items that each
// carry a sink — in the run form, in the per-embedding form, or one of
// each — are both executed, each sink receives the full embedding
// multiset, and nothing is deduplicated; a third, sinkless duplicate
// may neither stand in for them nor be served from their runs.
func TestStreamedBatchDuplicatesBothStream(t *testing.T) {
	s, g := newTestService(t, Config{})
	q := testutil.RandomConnectedQuery(rand.New(rand.NewSource(11)), g, 5)
	ctx := context.Background()
	var want collectSink
	ref, err := s.Stream(ctx, Request{Graph: "main", Query: q, Algorithm: core.CFL}, want.run)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Result.Embeddings == 0 {
		t.Fatal("fixture: no embeddings")
	}
	for _, forms := range [][2]string{{"run", "run"}, {"match", "match"}, {"run", "match"}} {
		var sinks [2]collectSink
		items := make([]Request, 3)
		for i := range items {
			items[i] = Request{Graph: "main", Query: q, Algorithm: core.CFL}
		}
		for i, form := range forms {
			if form == "run" {
				items[i].OnRun = sinks[i].run
			} else {
				items[i].OnMatch = sinks[i].fn
			}
		}
		before := s.metrics.batchDeduped.Value()
		results, err := s.SubmitBatch(ctx, items)
		if err != nil {
			t.Fatalf("%v: %v", forms, err)
		}
		for i, br := range results {
			if br.Err != nil {
				t.Fatalf("%v item %d: %v", forms, i, br.Err)
			}
			if br.Resp.Result.Embeddings != ref.Result.Embeddings {
				t.Errorf("%v item %d: %d embeddings, a lone Stream %d", forms, i, br.Resp.Result.Embeddings, ref.Result.Embeddings)
			}
		}
		for i := range sinks {
			if !bytes.Equal(sinks[i].canonical(), want.canonical()) {
				t.Errorf("%v: sink %d received %d embeddings, a lone Stream %d", forms, i, len(sinks[i].rows), len(want.rows))
			}
		}
		if d := s.metrics.batchDeduped.Value() - before; d != 0 {
			t.Errorf("%v: %d items deduplicated, want 0", forms, d)
		}
	}
}

// TestBatchPerItemIsolation mixes broken items into a batch and
// requires the valid ones to succeed untouched, each failure typed as
// its lone-Submit equivalent.
func TestBatchPerItemIsolation(t *testing.T) {
	s, g := newTestService(t, Config{})
	q := testutil.RandomConnectedQuery(rand.New(rand.NewSource(5)), g, 4)
	disconnected := graph.NewBuilder(0, 0)
	disconnected.AddVertex(0)
	disconnected.AddVertex(1)
	dq := disconnected.MustBuild()

	items := []Request{
		{Graph: "main", Query: q, Algorithm: core.CFL},
		{Graph: "main", Query: nil},
		{Graph: "nope", Query: q},
		{Graph: "main", Query: dq},
		{Graph: "main", Query: q, Algorithm: core.CFL},
	}
	results, err := s.SubmitBatch(context.Background(), items)
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Err != nil || results[4].Err != nil {
		t.Fatalf("valid items failed: %v / %v", results[0].Err, results[4].Err)
	}
	if !errors.Is(results[1].Err, ErrNilQuery) {
		t.Fatalf("nil query: got %v", results[1].Err)
	}
	if !errors.Is(results[2].Err, ErrUnknownGraph) {
		t.Fatalf("unknown graph: got %v", results[2].Err)
	}
	if results[3].Err == nil {
		t.Fatal("disconnected query must fail validation")
	}
	if results[0].Resp.Result.Embeddings != results[4].Resp.Result.Embeddings {
		t.Fatal("valid items around failures diverged")
	}
}

// TestBatchEmptyAndClosed covers the two batch-level failures.
func TestBatchEmptyAndClosed(t *testing.T) {
	s, g := newTestService(t, Config{})
	if _, err := s.SubmitBatch(context.Background(), nil); !errors.Is(err, ErrEmptyBatch) {
		t.Fatalf("empty batch: got %v", err)
	}
	q := testutil.RandomConnectedQuery(rand.New(rand.NewSource(5)), g, 4)
	s.Close()
	_, err := s.SubmitBatch(context.Background(), []Request{{Graph: "main", Query: q}})
	if !errors.Is(err, ErrClosed) {
		t.Fatalf("closed service: got %v", err)
	}
}

// FuzzBatchGrouping drives SubmitBatch with fuzzer-chosen batch
// compositions (item count, query choice per item, config choice,
// invalid-item injection) and checks the structural invariants:
//   - results come back index-aligned, one per item;
//   - invalid items fail alone and never poison a neighbor;
//   - every distinct valid (query, config) class builds exactly ONE
//     plan (smatch_plan_builds_total moves by the group count);
//   - every item's embedding count equals its query's reference count.
func FuzzBatchGrouping(f *testing.F) {
	f.Add(uint8(4), uint16(0x1234))
	f.Add(uint8(9), uint16(0xBEEF))
	f.Add(uint8(1), uint16(7))
	f.Add(uint8(16), uint16(0xFFFF))

	g := testutil.RandomGraph(rand.New(rand.NewSource(7)), 200, 600, 3)
	var queries []*graph.Graph
	qrng := rand.New(rand.NewSource(9))
	for i := 0; i < 4; i++ {
		queries = append(queries, testutil.RandomConnectedQuery(qrng, g, 3+i%3))
	}
	algos := []core.Algorithm{core.CFL, core.GraphQL}

	f.Fuzz(func(t *testing.T, n uint8, pattern uint16) {
		nItems := int(n%20) + 1
		s := New(Config{})
		if _, err := s.RegisterGraph("main", g, false); err != nil {
			t.Fatal(err)
		}
		defer s.Close()

		type groupID struct {
			query int
			algo  int
		}
		items := make([]Request, nItems)
		want := make([]groupID, nItems) // -1 query marks an invalid item
		groups := map[groupID]bool{}
		bits := rand.New(rand.NewSource(int64(pattern)))
		for i := range items {
			r := bits.Intn(10)
			switch {
			case r == 0:
				items[i] = Request{Graph: "main", Query: nil}
				want[i] = groupID{-1, 0}
			case r == 1:
				items[i] = Request{Graph: "absent", Query: queries[0]}
				want[i] = groupID{-1, 1}
			default:
				qi, ai := bits.Intn(len(queries)), bits.Intn(len(algos))
				items[i] = Request{Graph: "main", Query: queries[qi], Algorithm: algos[ai]}
				want[i] = groupID{qi, ai}
				groups[groupID{qi, ai}] = true
			}
		}

		// Reference counts per query/config class, computed uncached.
		ref := map[groupID]uint64{}
		for gid := range groups {
			res, err := s.Submit(context.Background(), Request{Graph: "main",
				Query: queries[gid.query], Algorithm: algos[gid.algo], NoCache: true})
			if err != nil {
				t.Fatal(err)
			}
			ref[gid] = res.Result.Embeddings
		}

		before := s.metrics.planBuilds.Value()
		results, err := s.SubmitBatch(context.Background(), items)
		if err != nil {
			t.Fatal(err)
		}
		if len(results) != nItems {
			t.Fatalf("got %d results for %d items", len(results), nItems)
		}
		for i, br := range results {
			if br.Index != i {
				t.Fatalf("item %d carries index %d", i, br.Index)
			}
			if want[i].query < 0 {
				if br.Err == nil {
					t.Fatalf("invalid item %d succeeded", i)
				}
				continue
			}
			if br.Err != nil {
				t.Fatalf("valid item %d failed: %v", i, br.Err)
			}
			if br.Resp.Result.Embeddings != ref[want[i]] {
				t.Fatalf("item %d: %d embeddings, reference %d — result routed to the wrong item?",
					i, br.Resp.Result.Embeddings, ref[want[i]])
			}
		}
		if builds := s.metrics.planBuilds.Value() - before; builds != uint64(len(groups)) {
			t.Fatalf("batch built %d plans for %d distinct groups", builds, len(groups))
		}
	})
}

// TestBatcherCoalescesConcurrentSubmits pins the batcher's purpose:
// concurrent singleton submissions of one hot query coalesce into far
// fewer SubmitBatch calls, all delivering the correct result.
func TestBatcherCoalescesConcurrentSubmits(t *testing.T) {
	s, g := newTestService(t, Config{})
	q := testutil.RandomConnectedQuery(rand.New(rand.NewSource(31)), g, 4)
	ref, err := s.Submit(context.Background(), Request{Graph: "main", Query: q, Algorithm: core.CFL})
	if err != nil {
		t.Fatal(err)
	}

	b := s.NewBatcher(BatcherConfig{MaxBatch: 16, MaxWait: 20 * time.Millisecond})
	defer b.Close()
	const n = 48
	var wg sync.WaitGroup
	errs := make([]error, n)
	resps := make([]*Response, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resps[i], errs[i] = b.Submit(context.Background(),
				Request{Graph: "main", Query: q, Algorithm: core.CFL})
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("submit %d: %v", i, errs[i])
		}
		if resps[i].Result.Embeddings != ref.Result.Embeddings {
			t.Fatalf("submit %d: %d embeddings, want %d",
				i, resps[i].Result.Embeddings, ref.Result.Embeddings)
		}
	}
	st := s.Stats()
	if st.Batches.Batches >= n {
		t.Fatalf("%d batches for %d submits: nothing coalesced", st.Batches.Batches, n)
	}
	if st.Batches.Items != n {
		t.Fatalf("batches carried %d items, want %d", st.Batches.Items, n)
	}
	if st.Batches.Deduped == 0 {
		t.Fatal("identical coalesced submissions should have deduplicated")
	}
}

// TestBatcherSingletonFlushesOnDeadline: one lone request must not wait
// for a full batch — the MaxWait deadline flushes it.
func TestBatcherSingletonFlushesOnDeadline(t *testing.T) {
	s, g := newTestService(t, Config{})
	q := testutil.RandomConnectedQuery(rand.New(rand.NewSource(31)), g, 4)
	b := s.NewBatcher(BatcherConfig{MaxBatch: 1024, MaxWait: 5 * time.Millisecond})
	defer b.Close()
	done := make(chan error, 1)
	go func() {
		_, err := b.Submit(context.Background(), Request{Graph: "main", Query: q})
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("singleton request never flushed")
	}
}

// TestBatcherClose drains pending work and fails later submits typed.
func TestBatcherClose(t *testing.T) {
	s, g := newTestService(t, Config{})
	q := testutil.RandomConnectedQuery(rand.New(rand.NewSource(31)), g, 4)
	b := s.NewBatcher(BatcherConfig{MaxBatch: 64, MaxWait: time.Hour})
	done := make(chan error, 1)
	go func() {
		_, err := b.Submit(context.Background(), Request{Graph: "main", Query: q})
		done <- err
	}()
	// Wait until the item is enqueued, then close: the close flush must
	// still run it.
	time.Sleep(20 * time.Millisecond)
	b.Close()
	if err := <-done; err != nil {
		t.Fatalf("pending item at Close: %v", err)
	}
	if _, err := b.Submit(context.Background(), Request{Graph: "main", Query: q}); !errors.Is(err, ErrBatcherClosed) {
		t.Fatalf("submit after Close: got %v", err)
	}
	b.Close() // idempotent
}

// TestConcurrentBatchStress hammers SubmitBatch and a batcher from many
// goroutines over shared plans while graphs hot-swap underneath — the
// race-stress surface for the batched path ('Stress' puts it in `make
// race-stress`).
func TestConcurrentBatchStress(t *testing.T) {
	s, g := newTestService(t, Config{MaxInFlight: 8, MaxQueue: 256, PlanCacheBytes: 1 << 20})
	rng := rand.New(rand.NewSource(41))
	var queries []*graph.Graph
	for i := 0; i < 6; i++ {
		queries = append(queries, testutil.RandomConnectedQuery(rng, g, 3+i%3))
	}
	b := s.NewBatcher(BatcherConfig{MaxBatch: 8, MaxWait: time.Millisecond})
	defer b.Close()

	const goroutines = 32
	var wg sync.WaitGroup
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lrng := rand.New(rand.NewSource(int64(w)))
			for iter := 0; iter < 8; iter++ {
				switch w % 3 {
				case 0: // direct batches
					items := make([]Request, 1+lrng.Intn(6))
					for i := range items {
						items[i] = Request{Graph: "main",
							Query: queries[lrng.Intn(len(queries))], Algorithm: core.CFL}
					}
					results, err := s.SubmitBatch(context.Background(), items)
					if err != nil {
						t.Error(err)
						return
					}
					for i, br := range results {
						if br.Err != nil && !errors.Is(br.Err, ErrOverloaded) {
							t.Errorf("item %d: %v", i, br.Err)
							return
						}
					}
				case 1: // coalesced singletons
					_, err := b.Submit(context.Background(), Request{Graph: "main",
						Query: queries[lrng.Intn(len(queries))], Algorithm: core.CFL})
					if err != nil && !errors.Is(err, ErrOverloaded) {
						t.Error(err)
						return
					}
				case 2: // hot-swap churn under the batches
					if _, err := s.RegisterGraph("main", g, true); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()

	// The reconciliation invariant must hold after the storm.
	st := s.Stats().Cache
	resident := uint64(st.Size)
	if got := resident + st.Evictions + st.Purged; got > s.metrics.planBuilds.Value() {
		t.Fatalf("cache accounting leaked: size %d + evictions %d + purged %d > builds %d",
			resident, st.Evictions, st.Purged, s.metrics.planBuilds.Value())
	}
	if st.BudgetBytes > 0 && st.SizeBytes > st.BudgetBytes {
		t.Fatalf("resident %d bytes exceeds budget %d", st.SizeBytes, st.BudgetBytes)
	}
}
