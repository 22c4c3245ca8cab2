package service

import (
	"bytes"
	"context"
	"math/rand"
	"sync"
	"testing"

	"subgraphmatching/internal/core"
	"subgraphmatching/internal/graph"
	"subgraphmatching/internal/testutil"
)

// raceLimit is the limit the first hit races at in these tests.
const raceLimit = 50

// switchingQuery is a query over g whose Optimized plan, raced at
// raceLimit, switches its order: the swap is what these tests check.
func switchingQuery(t *testing.T, g *graph.Graph) *graph.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(5))
	for range 400 {
		q := testutil.RandomConnectedQuery(rng, g, 4+rng.Intn(4))
		if q == nil {
			continue
		}
		plan, err := core.Preprocess(q, g, core.PresetConfig(core.Optimized, q, g), 1)
		if err != nil {
			t.Fatal(err)
		}
		if won := core.RaceOrders(plan, raceLimit); won != nil && won.Race.Winner != 0 {
			return q
		}
	}
	t.Fatal("no query in 400 switches its order")
	return nil
}

// races reads the race counters: kept and switched.
func races(s *Service) (kept, switched uint64) {
	return s.metrics.racesKept.Value(), s.metrics.racesSwitched.Value()
}

// checkCacheBooks holds the plan cache to its books after a swap: size +
// evictions + purged is the number of builds that inserted, the byte
// total is the resident plans' sizes, and admission is all returned.
func checkCacheBooks(t *testing.T, s *Service, inserts uint64) {
	t.Helper()
	st := s.cache.stats()
	if got := uint64(st.Size) + st.Evictions + st.Purged; got != inserts {
		t.Errorf("size %d + evictions %d + purged %d = %d, want %d inserts", st.Size, st.Evictions, st.Purged, got, inserts)
	}
	s.cache.mu.Lock()
	var bytes int64
	for e := s.cache.ll.Front(); e != nil; e = e.Next() {
		ent := e.Value.(*cacheEntry)
		if ent.size != ent.plan.SizeBytes() {
			t.Errorf("entry charged %d bytes, its plan is %d", ent.size, ent.plan.SizeBytes())
		}
		bytes += ent.size
	}
	s.cache.mu.Unlock()
	if bytes != st.SizeBytes {
		t.Errorf("cache books %d bytes, its plans are %d", st.SizeBytes, bytes)
	}
	if _, inUse, _ := s.sem.load(); inUse != 0 {
		t.Errorf("admission in use %d after every request returned", inUse)
	}
}

// TestRacedPlanCountsEqualIncumbent: the first sequential hit on an
// Optimized plan races its orders once and swaps the winner in; every
// later hit, at any limit and through a sink, returns what a fresh plan
// with the incumbent order returns, and EXPLAIN names the order in use
// and the race behind it.
func TestRacedPlanCountsEqualIncumbent(t *testing.T) {
	s, g := newTestService(t, Config{})
	defer s.Close()
	q := switchingQuery(t, g)
	ctx := context.Background()
	submit := func(req Request) *Response {
		t.Helper()
		resp, err := s.Submit(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	req := Request{Graph: "main", Query: q, Algorithm: core.Optimized, MaxEmbeddings: raceLimit}
	if submit(req).CacheHit {
		t.Fatal("the first request hit")
	}
	if kept, switched := races(s); kept+switched != 0 {
		t.Fatalf("a build raced: kept %d, switched %d", kept, switched)
	}
	if !submit(req).CacheHit {
		t.Fatal("the second request missed")
	}
	if kept, switched := races(s); kept != 0 || switched != 1 {
		t.Fatalf("after the first hit: kept %d, switched %d races, want one switch", kept, switched)
	}
	checkCacheBooks(t, s, 1)

	for _, limit := range []uint64{0, 1, 2, 7, raceLimit, 1000} {
		req.MaxEmbeddings = limit
		hit := submit(req)
		fresh := req
		fresh.NoCache = true
		want := submit(fresh)
		if !hit.CacheHit || hit.Result.Embeddings != want.Result.Embeddings || hit.Result.LimitHit != want.Result.LimitHit {
			t.Errorf("limit %d: hit %v, %d embeddings (limit hit %v); fresh plan %d (limit hit %v)", limit,
				hit.CacheHit, hit.Result.Embeddings, hit.Result.LimitHit, want.Result.Embeddings, want.Result.LimitHit)
		}
	}
	var raced, fresh collectSink
	req.MaxEmbeddings = 0
	if _, err := s.Stream(ctx, req, raced.run); err != nil {
		t.Fatal(err)
	}
	req.NoCache = true
	if _, err := s.Stream(ctx, req, fresh.run); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raced.canonical(), fresh.canonical()) {
		t.Error("the raced plan streams another embedding set than a fresh one")
	}
	if kept, switched := races(s); kept != 0 || switched != 1 {
		t.Errorf("later hits raced again: kept %d, switched %d", kept, switched)
	}

	ex, err := s.Explain(ctx, Request{Graph: "main", Query: q, Algorithm: core.Optimized})
	if err != nil {
		t.Fatal(err)
	}
	p := ex.Profile
	if r := p.Race; r == nil || r.Limit != raceLimit || len(r.Entries) < 2 || r.Winner == 0 ||
		p.OrderMethod != r.Entries[r.Winner].Order || r.Entries[0].Nodes <= r.Entries[r.Winner].Nodes {
		t.Errorf("EXPLAIN after the race: order %q, race %+v", p.OrderMethod, p.Race)
	}
	checkCacheBooks(t, s, 1)
}

// TestStressPlanRacesOnce: concurrent first hits race a plan once; the
// others serve on the incumbent or the winner, every count is the same,
// and the cache's books hold across the swap.
func TestStressPlanRacesOnce(t *testing.T) {
	s, g := newTestService(t, Config{})
	defer s.Close()
	q := switchingQuery(t, g)
	ctx := context.Background()
	req := Request{Graph: "main", Query: q, Algorithm: core.Optimized, MaxEmbeddings: raceLimit}
	first, err := s.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 20 {
				resp, err := s.Submit(ctx, req)
				if err != nil {
					t.Error(err)
					return
				}
				if !resp.CacheHit || resp.Result.Embeddings != first.Result.Embeddings {
					t.Errorf("hit %v, %d embeddings, want a hit with %d", resp.CacheHit, resp.Result.Embeddings, first.Result.Embeddings)
					return
				}
			}
		}()
	}
	wg.Wait()
	if kept, switched := races(s); kept+switched != 1 {
		t.Errorf("160 concurrent hits ran %d races (kept %d, switched %d), want 1", kept+switched, kept, switched)
	}
	checkCacheBooks(t, s, 1)
}

// TestNoRaceWithoutTheTrigger: streams, parallel requests, Custom
// tuples and paper presets never race a plan, and such hits do not use
// up the race of the sequential count after them; a plan whose
// incumbent count searches past the node ceiling does not race.
func TestNoRaceWithoutTheTrigger(t *testing.T) {
	s, g := newTestService(t, Config{})
	defer s.Close()
	q := switchingQuery(t, g)
	ctx := context.Background()
	submit := func(req Request) *Response {
		t.Helper()
		resp, err := s.Submit(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	optimized := core.PresetConfig(core.Optimized, q, g)
	stream := func(_ []uint32, _ graph.Vertex, vs []uint32) int { return len(vs) }
	for _, req := range []Request{
		{Graph: "main", Query: q, Algorithm: core.Optimized, OnRun: stream},
		{Graph: "main", Query: q, Algorithm: core.Optimized, Parallel: 2},
		{Graph: "main", Query: q, Custom: &optimized},
		{Graph: "main", Query: q, Algorithm: core.GraphQL},
		{Graph: "main", Query: q, Algorithm: core.CECI},
	} {
		req.MaxEmbeddings = raceLimit
		for range 3 {
			submit(req)
		}
		if kept, switched := races(s); kept+switched != 0 {
			t.Fatalf("%s (parallel %d, sink %v) hits raced: kept %d, switched %d",
				req.algoName(), req.Parallel, req.hasSink(), kept, switched)
		}
	}
	// The stream built the Optimized plan, and it and the parallel
	// requests hit it; the first sequential count races it.
	submit(Request{Graph: "main", Query: q, Algorithm: core.Optimized, MaxEmbeddings: raceLimit})
	if kept, switched := races(s); kept+switched != 1 {
		t.Errorf("the first sequential hit after parallel ones ran %d races, want 1", kept+switched)
	}
	ex, err := s.Explain(ctx, Request{Graph: "main", Query: q, Custom: &optimized})
	if err != nil {
		t.Fatal(err)
	}
	if ex.Profile.Race != nil || ex.Profile.OrderMethod != optimized.Order.String() {
		t.Errorf("the Custom tuple's plan runs order %q, race %+v; want its own %v, unraced",
			ex.Profile.OrderMethod, ex.Profile.Race, optimized.Order)
	}
	checkCacheBooks(t, s, 4)

	// A 7-vertex path in a 12-clique, counted to the end, reaches its
	// tail on 12·11·10·9·8 partial embeddings — more nodes than a race may
	// cost: its plan does not race, then or later.
	b := graph.NewBuilder(12, 66)
	for range 12 {
		b.AddVertex(0)
	}
	for u := range 12 {
		for v := u + 1; v < 12; v++ {
			b.AddEdge(graph.Vertex(u), graph.Vertex(v))
		}
	}
	if _, err := s.RegisterGraph("clique", b.MustBuild(), false); err != nil {
		t.Fatal(err)
	}
	pb := graph.NewBuilder(7, 6)
	for i := range 7 {
		pb.AddVertex(0)
		if i > 0 {
			pb.AddEdge(graph.Vertex(i-1), graph.Vertex(i))
		}
	}
	path := Request{Graph: "clique", Query: pb.MustBuild(), Algorithm: core.Optimized}
	for range 3 {
		if resp := submit(path); resp.Result.Embeddings != 12*11*10*9*8*7*6 {
			t.Fatalf("the path counts %d embeddings in the clique", resp.Result.Embeddings)
		}
	}
	if kept, switched := races(s); kept+switched != 1 {
		t.Errorf("a plan over the node ceiling raced: %d races, want the one before", kept+switched)
	}
	ex, err = s.Explain(ctx, path)
	if err != nil {
		t.Fatal(err)
	}
	if ex.Profile.Race != nil {
		t.Errorf("a plan over the node ceiling carries a race: %+v", ex.Profile.Race)
	}
}
