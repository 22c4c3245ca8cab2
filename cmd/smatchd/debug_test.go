package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"strings"
	"testing"

	"subgraphmatching/internal/core"
	"subgraphmatching/internal/testutil"
)

// TestMatchExplainParam: explain=1 attaches the EXPLAIN/ANALYZE profile
// to the /match result, and its heat table reconciles with the result's
// own node count; without the flag the field is absent.
func TestMatchExplainParam(t *testing.T) {
	ts, g := newTestServer(t)
	q := testutil.RandomConnectedQuery(rand.New(rand.NewSource(21)), g, 4)
	body := graphText(t, q)

	resp, out := do(t, "POST", ts.URL+"/match?graph=main", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("match = %d %q", resp.StatusCode, out)
	}
	if strings.Contains(out, `"profile"`) {
		t.Error("unprofiled result carries a profile field")
	}

	resp, out = do(t, "POST", ts.URL+"/match?graph=main&explain=1&algo=GQL", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("explained match = %d %q", resp.StatusCode, out)
	}
	var res matchResult
	if err := json.Unmarshal([]byte(out), &res); err != nil {
		t.Fatal(err)
	}
	if res.Profile == nil {
		t.Fatal("explain=1 returned no profile")
	}
	if !res.Profile.Analyzed {
		t.Error("match profile should be analyzed")
	}
	var heatNodes uint64
	for _, h := range res.Profile.Heat {
		heatNodes += h.Nodes
	}
	if heatNodes != res.Nodes {
		t.Errorf("heat nodes %d != result nodes %d", heatNodes, res.Nodes)
	}
	if len(res.Profile.Filter) == 0 {
		t.Error("profile has no filter stages")
	}
}

// TestExplainEndpoint: POST /explain dry-runs the plan — filter stages
// and order, no heat — and supports the text rendering.
func TestExplainEndpoint(t *testing.T) {
	ts, g := newTestServer(t)
	q := testutil.RandomConnectedQuery(rand.New(rand.NewSource(22)), g, 4)
	body := graphText(t, q)

	resp, out := do(t, "POST", ts.URL+"/explain?graph=main&algo=CFL", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("explain = %d %q", resp.StatusCode, out)
	}
	var er struct {
		Profile  *core.Profile `json:"profile"`
		CacheHit bool          `json:"cache_hit"`
	}
	if err := json.Unmarshal([]byte(out), &er); err != nil {
		t.Fatal(err)
	}
	if er.Profile == nil || er.Profile.Analyzed {
		t.Fatalf("profile = %+v, want unanalyzed", er.Profile)
	}
	if len(er.Profile.Order) != q.NumVertices() || len(er.Profile.Heat) != 0 {
		t.Errorf("order=%d heat=%d, want %d and 0",
			len(er.Profile.Order), len(er.Profile.Heat), q.NumVertices())
	}

	// The dry run cached the plan; a real match now hits it.
	resp, out = do(t, "POST", ts.URL+"/match?graph=main&algo=CFL", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("match after explain = %d %q", resp.StatusCode, out)
	}
	var mr matchResult
	if err := json.Unmarshal([]byte(out), &mr); err != nil {
		t.Fatal(err)
	}
	if !mr.CacheHit {
		t.Error("match did not reuse the explain dry run's plan")
	}

	// Text rendering.
	resp, out = do(t, "POST", ts.URL+"/explain?graph=main&algo=CFL&format=text", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("text explain = %d", resp.StatusCode)
	}
	if !strings.Contains(out, "filter stages:") || !strings.Contains(out, "order") {
		t.Errorf("text render missing sections:\n%s", out)
	}

	// An engine's plan names the engine.
	resp, out = do(t, "POST", ts.URL+"/explain?graph=main&algo=VF2", body)
	if resp.StatusCode != http.StatusOK || !strings.Contains(out, `"order_method":"vf2"`) {
		t.Errorf("engine explain = %d %q, want 200 naming vf2", resp.StatusCode, out)
	}
}

// TestDebugTracez drives requests through the server and reads them
// back from the flight recorder: the bucket listing, the per-record
// span fetch, the text and Chrome renderings, and the error ring.
func TestDebugTracez(t *testing.T) {
	ts, g := newTestServer(t)
	q := testutil.RandomConnectedQuery(rand.New(rand.NewSource(23)), g, 4)
	body := graphText(t, q)
	for i := 0; i < 3; i++ {
		if resp, out := do(t, "POST", ts.URL+"/match?graph=main", body); resp.StatusCode != http.StatusOK {
			t.Fatalf("match = %d %q", resp.StatusCode, out)
		}
	}
	// One failing request for the error ring: a query larger than the
	// data graph fails validation after the flight has started (an
	// unknown graph, by contrast, fails before graph resolution and
	// never becomes a flight).
	oversized := graphText(t, testutil.RandomGraph(rand.New(rand.NewSource(24)), 300, 700, 3))
	if resp, _ := do(t, "POST", ts.URL+"/match?graph=main", oversized); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized-query match did not fail validation")
	}

	resp, out := do(t, "GET", ts.URL+"/debug/tracez", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("tracez = %d", resp.StatusCode)
	}
	var tz tracezResponse
	if err := json.Unmarshal([]byte(out), &tz); err != nil {
		t.Fatal(err)
	}
	var total uint64
	var anyID uint64
	for _, b := range tz.Buckets {
		total += b.Count
		for _, rec := range b.Records {
			if rec.Graph == "main" && rec.Error == "" {
				anyID = rec.ID
				if rec.LatencyNS <= 0 {
					t.Errorf("retained record without latency: %+v", rec)
				}
			}
		}
	}
	if total != 4 {
		t.Errorf("completed count = %d, want 4 (errored flights complete too)", total)
	}
	if anyID == 0 {
		t.Fatal("no retained record for graph main")
	}
	if len(tz.Errors) != 1 || tz.Errors[0].Error == "" {
		t.Errorf("error ring = %+v, want the validation failure", tz.Errors)
	}

	// Per-record span fetch: JSON carries the request span tree.
	resp, out = do(t, "GET", fmt.Sprintf("%s/debug/tracez?id=%d", ts.URL, anyID), "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("tracez?id = %d %q", resp.StatusCode, out)
	}
	if !strings.Contains(out, `"request"`) || !strings.Contains(out, `"span"`) {
		t.Errorf("record fetch missing span: %.200s", out)
	}

	// Text rendering names the phases.
	_, out = do(t, "GET", fmt.Sprintf("%s/debug/tracez?id=%d&format=text", ts.URL, anyID), "")
	if !strings.Contains(out, "request") || !strings.Contains(out, "admission") {
		t.Errorf("text record render:\n%s", out)
	}

	// Chrome export is a valid trace-event file.
	_, out = do(t, "GET", fmt.Sprintf("%s/debug/tracez?id=%d&format=chrome", ts.URL, anyID), "")
	var tr struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(out), &tr); err != nil {
		t.Fatalf("chrome export not JSON: %v", err)
	}
	if len(tr.TraceEvents) == 0 || tr.TraceEvents[0].Ph != "X" {
		t.Errorf("chrome export events: %+v", tr.TraceEvents)
	}

	// Unknown id: 404.
	resp, _ = do(t, "GET", ts.URL+"/debug/tracez?id=999999", "")
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("missing record = %d, want 404", resp.StatusCode)
	}

	// Bucket text listing.
	_, out = do(t, "GET", ts.URL+"/debug/tracez?format=text", "")
	if !strings.Contains(out, "<1ms") || !strings.Contains(out, "errors (newest first):") {
		t.Errorf("text listing:\n%s", out)
	}
}

// TestDebugRequests: the live registry is empty at rest and serves both
// encodings.
func TestDebugRequests(t *testing.T) {
	ts, _ := newTestServer(t)
	resp, out := do(t, "GET", ts.URL+"/debug/requests", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("debug/requests = %d", resp.StatusCode)
	}
	var dr struct {
		Inflight []json.RawMessage `json:"inflight"`
	}
	if err := json.Unmarshal([]byte(out), &dr); err != nil {
		t.Fatal(err)
	}
	if len(dr.Inflight) != 0 {
		t.Errorf("inflight at rest = %d", len(dr.Inflight))
	}
	_, out = do(t, "GET", ts.URL+"/debug/requests?format=text", "")
	if !strings.Contains(out, "0 in flight") {
		t.Errorf("text view:\n%s", out)
	}
}
