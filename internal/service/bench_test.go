package service

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"subgraphmatching/internal/core"
	"subgraphmatching/internal/testutil"
)

// benchService builds the repeated-query serving workload: a graph big
// enough that GraphQL's global refinement dominates the per-query cost,
// and a query capped so enumeration stays cheap — the regime where plan
// reuse pays.
func benchService(b testing.TB) (*Service, Request) {
	b.Helper()
	s := New(Config{MaxQueueWait: 0})
	g := testutil.RandomGraph(rand.New(rand.NewSource(17)), 2000, 20000, 4)
	if _, err := s.RegisterGraph("bench", g, false); err != nil {
		b.Fatal(err)
	}
	q := testutil.RandomConnectedQuery(rand.New(rand.NewSource(18)), g, 6)
	return s, Request{Graph: "bench", Query: q, Algorithm: core.GraphQL, MaxEmbeddings: 100}
}

// BenchmarkServeCold measures the uncached path: every request pays
// filtering + candidate-space construction + ordering.
func BenchmarkServeCold(b *testing.B) {
	s, req := benchService(b)
	req.NoCache = true
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Submit(ctx, req); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServeWarm measures the cache-hit path the service exists
// for: preprocessing amortized into one build, requests go straight to
// enumeration. ISSUE acceptance: ≥2× faster than BenchmarkServeCold.
// A hit allocates 3 objects, 488 B — its flight, result and response:
// its engine comes parked on the plan, its query graph builds no label
// index (with both on the path it was 90 objects, 8.6 KB), its metric
// children are bound once and its spans are built only when kept (with
// those it was 48 objects, 1.9 KB). TestWarmHitAllocBudget pins the
// count.
func BenchmarkServeWarm(b *testing.B) {
	s, req := benchService(b)
	ctx := context.Background()
	if _, err := s.Submit(ctx, req); err != nil { // warm the cache
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := s.Submit(ctx, req)
		if err != nil {
			b.Fatal(err)
		}
		if !resp.CacheHit {
			b.Fatal("warm benchmark missed the cache")
		}
	}
}

// BenchmarkBatchSubmit measures the per-item cost of batched serving
// at growing batch sizes over one hot query: size=1 is the batching
// overhead floor (a batch of one pays the grouping machinery for
// nothing), and larger sizes amortize admission + plan lookup + (for
// identical counts-only items) the execution itself across the batch.
// ISSUE acceptance: ≥2× per-item reduction at batch 64 vs sequential
// Submit (BenchmarkServeWarm is the sequential baseline).
func BenchmarkBatchSubmit(b *testing.B) {
	for _, size := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("size=%d", size), func(b *testing.B) {
			s, req := benchService(b)
			ctx := context.Background()
			if _, err := s.Submit(ctx, req); err != nil { // warm the cache
				b.Fatal(err)
			}
			items := make([]Request, size)
			for i := range items {
				items[i] = req
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				results, err := s.SubmitBatch(ctx, items)
				if err != nil {
					b.Fatal(err)
				}
				for _, br := range results {
					if br.Err != nil {
						b.Fatal(br.Err)
					}
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*size), "ns/item")
		})
	}
}

// TestCacheHitSkipsPreprocessing is the deterministic (non-timing)
// shadow of the benchmark pair: a hit pays zero preprocessing while a
// fresh run pays a nonzero amount.
func TestCacheHitSkipsPreprocessing(t *testing.T) {
	s := New(Config{})
	g := testutil.RandomGraph(rand.New(rand.NewSource(17)), 2000, 20000, 4)
	if _, err := s.RegisterGraph("bench", g, false); err != nil {
		t.Fatal(err)
	}
	q := testutil.RandomConnectedQuery(rand.New(rand.NewSource(18)), g, 6)
	req := Request{Graph: "bench", Query: q, Algorithm: core.GraphQL, MaxEmbeddings: 100}
	ctx := context.Background()
	cold, err := s.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if cold.CacheHit || cold.Result.PreprocessTime() <= 0 {
		t.Fatalf("cold: hit=%v preprocess=%v", cold.CacheHit, cold.Result.PreprocessTime())
	}
	warm, err := s.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.CacheHit || warm.Result.PreprocessTime() != 0 {
		t.Fatalf("warm: hit=%v preprocess=%v", warm.CacheHit, warm.Result.PreprocessTime())
	}
	if cold.Result.Embeddings != warm.Result.Embeddings {
		t.Fatalf("embeddings diverged: cold %d warm %d", cold.Result.Embeddings, warm.Result.Embeddings)
	}
}
