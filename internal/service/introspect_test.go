package service

import (
	"context"
	"math/rand"
	"strings"
	"testing"

	"subgraphmatching/internal/core"
	"subgraphmatching/internal/testutil"
)

// TestSubmitProfileAttachesExplain: Request.Profile turns a Submit into
// EXPLAIN ANALYZE — the heat table arrives on Result.Explain and its
// totals reconcile with the Result's own counters.
func TestSubmitProfileAttachesExplain(t *testing.T) {
	s, g := newTestService(t, Config{})
	defer s.Close()
	q := testutil.RandomConnectedQuery(rand.New(rand.NewSource(11)), g, 4)

	resp, err := s.Submit(context.Background(), Request{
		Graph: "main", Query: q, Algorithm: core.GraphQL, Profile: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	ex := resp.Result.Explain
	if ex == nil {
		t.Fatal("Profile request returned no Explain")
	}
	if !ex.Analyzed {
		t.Error("Submit profile should be analyzed")
	}
	var heatNodes uint64
	for _, h := range ex.Heat {
		heatNodes += h.Nodes
	}
	if heatNodes != resp.Result.Nodes {
		t.Errorf("heat nodes %d != result nodes %d", heatNodes, resp.Result.Nodes)
	}
	if len(ex.Filter) == 0 {
		t.Error("no filter stages in profile")
	}

	// A cached-plan Profile request still profiles: plan identity is
	// independent of the Profile bit.
	resp2, err := s.Submit(context.Background(), Request{
		Graph: "main", Query: q, Algorithm: core.GraphQL, Profile: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !resp2.CacheHit {
		t.Error("profiled repeat should share the cached plan")
	}
	if resp2.Result.Explain == nil || resp2.Result.Explain.Nodes != resp.Result.Nodes {
		t.Errorf("cached-plan profile diverged: %+v", resp2.Result.Explain)
	}

	// And an unprofiled request on the same plan carries no Explain.
	resp3, err := s.Submit(context.Background(), Request{
		Graph: "main", Query: q, Algorithm: core.GraphQL,
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp3.Result.Explain != nil {
		t.Error("unprofiled request carries an Explain")
	}
}

// TestExplainDryRun: Service.Explain returns the plan breakdown without
// enumerating, and the plan it builds is cached for the real query.
func TestExplainDryRun(t *testing.T) {
	s, g := newTestService(t, Config{})
	defer s.Close()
	q := testutil.RandomConnectedQuery(rand.New(rand.NewSource(12)), g, 4)

	resp, err := s.Explain(context.Background(), Request{Graph: "main", Query: q, Algorithm: core.CFL})
	if err != nil {
		t.Fatal(err)
	}
	if resp.CacheHit {
		t.Error("cold explain reported a cache hit")
	}
	p := resp.Profile
	if p == nil || p.Analyzed {
		t.Fatalf("dry-run profile = %+v, want non-nil unanalyzed", p)
	}
	if len(p.Filter) == 0 || len(p.Heat) != 0 {
		t.Errorf("dry run: %d filter stages, %d heat rows (want >0, 0)", len(p.Filter), len(p.Heat))
	}
	if len(p.Order) != q.NumVertices() {
		t.Errorf("order entries = %d, want %d", len(p.Order), q.NumVertices())
	}
	var sb strings.Builder
	p.Render(&sb)
	if !strings.Contains(sb.String(), "filter stages:") || !strings.Contains(sb.String(), "order") {
		t.Errorf("render missing sections:\n%s", sb.String())
	}

	// The real query now hits the plan the dry run built.
	mresp, err := s.Submit(context.Background(), Request{Graph: "main", Query: q, Algorithm: core.CFL})
	if err != nil {
		t.Fatal(err)
	}
	if !mresp.CacheHit {
		t.Error("submit after explain did not reuse the dry run's plan")
	}
	eresp, err := s.Explain(context.Background(), Request{Graph: "main", Query: q, Algorithm: core.CFL})
	if err != nil {
		t.Fatal(err)
	}
	if !eresp.CacheHit {
		t.Error("second explain did not hit the cache")
	}
}

// TestExplainEnginePlan: an engine outside the pipeline has a plan like
// any configuration. EXPLAIN builds and caches it and names the engine;
// EXPLAIN ANALYZE over the cached plan names it too and carries the
// run's totals, with no heat table — the engine records none — and the
// built plan's trace names the engine on its preprocess span.
func TestExplainEnginePlan(t *testing.T) {
	s, g := newTestService(t, Config{})
	defer s.Close()
	q := testutil.RandomConnectedQuery(rand.New(rand.NewSource(13)), g, 3)
	ctx := context.Background()
	for algo, engine := range map[core.Algorithm]string{core.Glasgow: "glasgow", core.VF2Classic: "vf2", core.Ullmann: "ullmann"} {
		req := Request{Graph: "main", Query: q, Algorithm: algo}
		ex, err := s.Explain(ctx, req)
		if err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
		if ex.CacheHit || ex.Profile.OrderMethod != engine || len(ex.Profile.Heat) != 0 {
			t.Errorf("%v: EXPLAIN hit %v, names %q, %d heat rows; want a miss naming %q, no heat",
				algo, ex.CacheHit, ex.Profile.OrderMethod, len(ex.Profile.Heat), engine)
		}
		req.Profile = true
		resp, err := s.Submit(ctx, req)
		if err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
		res, p := resp.Result, resp.Result.Explain
		if !resp.CacheHit || p == nil || !p.Analyzed || p.OrderMethod != engine || len(p.Heat) != 0 ||
			p.Embeddings != res.Embeddings || p.Nodes != res.Nodes || res.Embeddings == 0 {
			t.Errorf("%v: EXPLAIN ANALYZE hit %v, profile %+v, result %d embeddings %d nodes",
				algo, resp.CacheHit, p, res.Embeddings, res.Nodes)
		}
		req.Profile, req.NoCache = false, true
		if resp, err = s.Submit(ctx, req); err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
		pre := resp.Trace().Child("match").Child("preprocess")
		if pre == nil || pre.Attr("engine") != engine {
			t.Errorf("%v: a built plan's trace does not name the engine", algo)
		}
	}
}

// TestFlightRecorderObservesSubmits: completed requests land in the
// recorder's retention with the workload identity and the request span;
// failed requests land in the error ring.
func TestFlightRecorderObservesSubmits(t *testing.T) {
	s, g := newTestService(t, Config{})
	defer s.Close()
	q := testutil.RandomConnectedQuery(rand.New(rand.NewSource(14)), g, 4)

	if _, err := s.Submit(context.Background(), Request{Graph: "main", Query: q}); err != nil {
		t.Fatal(err)
	}
	if n := s.Flights().InflightCount(); n != 0 {
		t.Fatalf("inflight after completion = %d", n)
	}
	var found bool
	for _, b := range s.Flights().Snapshot() {
		for _, r := range b.Records {
			if r.Graph != "main" {
				continue
			}
			found = true
			if r.Algo != core.QuickSI.String() || r.Err != "" {
				t.Errorf("record = %s/%s err=%q", r.Graph, r.Algo, r.Err)
			}
			if r.Span == nil || r.Span.Name != "request" {
				t.Errorf("record span missing or misnamed: %+v", r.Span)
			}
		}
	}
	if !found {
		t.Fatal("completed request not retained by the recorder")
	}

	// A failing request (validation error) enters the error ring.
	bad := testutil.RandomGraph(rand.New(rand.NewSource(15)), 400, 800, 3)
	if _, err := s.Submit(context.Background(), Request{Graph: "main", Query: bad}); err == nil {
		t.Fatal("oversized query did not fail validation")
	}
	errsRecs := s.Flights().Errors()
	if len(errsRecs) == 0 || errsRecs[0].Err == "" {
		t.Fatalf("error not recorded: %+v", errsRecs)
	}
	if n := s.Flights().InflightCount(); n != 0 {
		t.Fatalf("inflight after error = %d", n)
	}
}

// TestBatchProfileDedup: within a batch group, a profiled item must not
// be served by an unprofiled duplicate's fan-out (and vice versa) — the
// fan-out has no Explain to offer — while same-profile duplicates still
// dedup.
func TestBatchProfileDedup(t *testing.T) {
	s, g := newTestService(t, Config{})
	defer s.Close()
	q := testutil.RandomConnectedQuery(rand.New(rand.NewSource(16)), g, 4)
	base := Request{Graph: "main", Query: q, Algorithm: core.QuickSI}
	prof := base
	prof.Profile = true

	results, err := s.SubmitBatch(context.Background(), []Request{base, prof, base, prof})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("item %d: %v", i, r.Err)
		}
	}
	if results[1].Resp.Result.Explain == nil || results[3].Resp.Result.Explain == nil {
		t.Error("profiled batch items lost their Explain")
	}
	if results[0].Resp.Result.Explain != nil || results[2].Resp.Result.Explain != nil {
		t.Error("unprofiled batch items gained an Explain")
	}
	// Two dedups: one per exec class (profiled, unprofiled).
	if v := s.metrics.batchDeduped.Value(); v != 2 {
		t.Errorf("dedup fan-outs = %d, want 2", v)
	}
}
