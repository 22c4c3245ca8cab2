package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"slices"
	"strings"
	"testing"

	"subgraphmatching/internal/core"
	"subgraphmatching/internal/enumerate"
	"subgraphmatching/internal/obs"
	"subgraphmatching/internal/service"
	"subgraphmatching/internal/testutil"
)

// TestMatchBatchEndpoint drives POST /match/batch end to end: indexed
// results, duplicate items served (one of them a cache-hit fan-out),
// and a reference /match agreeing on the counts.
func TestMatchBatchEndpoint(t *testing.T) {
	ts, g := newTestServer(t)
	q := graphText(t, testutil.RandomConnectedQuery(rand.New(rand.NewSource(5)), g, 4))

	resp, body := do(t, "POST", ts.URL+"/match?graph=main&algo=CFL", q)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reference /match: %d %s", resp.StatusCode, body)
	}
	var ref matchResult
	if err := json.Unmarshal([]byte(body), &ref); err != nil {
		t.Fatal(err)
	}

	items, err := json.Marshal([]matchRequest{
		{Graph: "main", Query: q, Algo: "CFL"},
		{Graph: "main", Query: q, Algo: "CFL"},
		{Graph: "main", Query: q, Algo: "GQL"},
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, body = do(t, "POST", ts.URL+"/match/batch", string(items))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/match/batch: %d %s", resp.StatusCode, body)
	}
	var out batchResponse
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatalf("bad batch response: %v\n%s", err, body)
	}
	if out.Items != 3 || out.Errors != 0 || len(out.Results) != 3 {
		t.Fatalf("envelope = items %d errors %d results %d", out.Items, out.Errors, len(out.Results))
	}
	for i, r := range out.Results {
		if r.Index != i {
			t.Fatalf("result %d carries index %d", i, r.Index)
		}
		if r.Error != "" || r.Result == nil {
			t.Fatalf("item %d failed: %s", i, r.Error)
		}
		if r.Result.Embeddings != ref.Embeddings {
			t.Fatalf("item %d: %d embeddings, /match says %d", i, r.Result.Embeddings, ref.Embeddings)
		}
	}
	// Item 1 duplicates item 0 under the same config: it must be served
	// as a hit (shared plan at minimum; execution dedup when counts-only).
	if !out.Results[1].Result.CacheHit {
		t.Error("duplicate batch item did not report a cache hit")
	}
}

// TestMatchBatchItemIsolationStatuses: broken items fail alone with the
// status their lone /match call would have gotten; the batch still 200s.
func TestMatchBatchItemIsolationStatuses(t *testing.T) {
	ts, g := newTestServer(t)
	q := graphText(t, testutil.RandomConnectedQuery(rand.New(rand.NewSource(5)), g, 4))

	items, _ := json.Marshal([]matchRequest{
		{Graph: "main", Query: q},
		{Graph: "absent", Query: q},             // 404
		{Graph: "main", Query: "garbage"},       // 400 (parse)
		{Graph: "main", Query: q, Algo: "nope"}, // 400 (unknown algo)
	})
	resp, body := do(t, "POST", ts.URL+"/match/batch", string(items))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch with bad items must still 200: %d %s", resp.StatusCode, body)
	}
	var out batchResponse
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatal(err)
	}
	if out.Errors != 3 {
		t.Fatalf("errors = %d, want 3\n%s", out.Errors, body)
	}
	if out.Results[0].Error != "" || out.Results[0].Result == nil {
		t.Fatalf("valid item failed: %s", out.Results[0].Error)
	}
	wantStatus := []int{0, http.StatusNotFound, http.StatusBadRequest, http.StatusBadRequest}
	for i := 1; i < 4; i++ {
		if out.Results[i].Status != wantStatus[i] {
			t.Errorf("item %d status = %d, want %d (%s)", i, out.Results[i].Status, wantStatus[i], out.Results[i].Error)
		}
	}

	// Whole-batch failures keep their own statuses.
	resp, _ = do(t, "POST", ts.URL+"/match/batch", "[]")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty batch: %d, want 400", resp.StatusCode)
	}
	resp, _ = do(t, "POST", ts.URL+"/match/batch", "{not json")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad body: %d, want 400", resp.StatusCode)
	}
	big, _ := json.Marshal(make([]matchRequest, maxBatchItems+1))
	resp, _ = do(t, "POST", ts.URL+"/match/batch", string(big))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized batch: %d, want 400", resp.StatusCode)
	}
}

// TestMatchBatchStreamNDJSON checks the streaming shape: indexed
// embedding lines followed by one indexed terminal line per item, with
// embeddings routed to the right index. Items 0 and 2 are identical and
// both streamed: each is executed and receives every embedding itself,
// neither is deduplicated into the other.
func TestMatchBatchStreamNDJSON(t *testing.T) {
	ts, g := newTestServer(t)
	q := graphText(t, testutil.RandomConnectedQuery(rand.New(rand.NewSource(5)), g, 4))

	items, _ := json.Marshal([]matchRequest{
		{Graph: "main", Query: q, Algo: "CFL", Limit: "5"},
		{Graph: "absent", Query: q},
		{Graph: "main", Query: q, Algo: "CFL", Limit: "5"},
		// A second group: it enumerates concurrently with the first, so
		// the two sinks meet on the stream's lock.
		{Graph: "main", Query: q, Algo: "GQL", Limit: "5"},
	})
	resp, body := do(t, "POST", ts.URL+"/match/batch?stream=1", string(items))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream: %d %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type = %q", ct)
	}
	embeddings := map[int]int{}
	streamed := map[int][]string{}
	terminals := map[int]batchResultItem{}
	sc := bufio.NewScanner(strings.NewReader(body))
	for sc.Scan() {
		var line struct {
			Index     int          `json:"index"`
			Embedding []uint32     `json:"embedding"`
			Result    *matchResult `json:"result"`
			Error     string       `json:"error"`
			Status    int          `json:"status"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		switch {
		case line.Embedding != nil:
			if want := marshalLine(t, batchEmbeddingLine{line.Index, line.Embedding}); sc.Text()+"\n" != string(want) {
				t.Fatalf("embedding line %q, want %q", sc.Text(), want)
			}
			embeddings[line.Index]++
			streamed[line.Index] = append(streamed[line.Index], fmt.Sprint(line.Embedding))
		default:
			terminals[line.Index] = batchResultItem{Index: line.Index,
				Result: line.Result, Error: line.Error, Status: line.Status}
		}
	}
	if len(terminals) != 4 {
		t.Fatalf("%d terminal lines, want 4", len(terminals))
	}
	for _, i := range []int{0, 2, 3} {
		term := terminals[i]
		if term.Error != "" || term.Result == nil {
			t.Fatalf("item %d: %+v", i, term)
		}
		if got := uint64(embeddings[i]); got != term.Result.Embeddings {
			t.Fatalf("item %d streamed %d embeddings, result says %d", i, got, term.Result.Embeddings)
		}
	}
	if terminals[1].Status != http.StatusNotFound {
		t.Fatalf("item 1 status = %d, want 404", terminals[1].Status)
	}
	if embeddings[1] != 0 {
		t.Fatal("failed item streamed embeddings")
	}
	if embeddings[0] == 0 || !slices.Equal(streamed[0], streamed[2]) {
		t.Fatalf("duplicate streamed items diverged: item 0 streamed %v, item 2 %v", streamed[0], streamed[2])
	}
	_, metrics := do(t, "GET", ts.URL+"/metrics", "")
	if v := promValue(t, metrics, "smatch_batch_dedup_fanout_total"); v != 0 {
		t.Fatalf("smatch_batch_dedup_fanout_total = %v after a batch whose duplicates both stream, want 0", v)
	}
}

// TestTenantSaturatedMapsTo503RetryAfter pins the transport contract
// for the fairness clamp: ErrTenantSaturated is a retryable 503 with a
// Retry-After header, exactly like the other overload rejections.
func TestTenantSaturatedMapsTo503RetryAfter(t *testing.T) {
	rec := httptest.NewRecorder()
	httpError(rec, fmt.Errorf("wrapped: %w", service.ErrTenantSaturated))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
	if got := statusFor(service.ErrTenantSaturated); got != http.StatusServiceUnavailable {
		t.Fatalf("statusFor = %d, want 503", got)
	}
}

// TestInternalErrorMapsTo500: a recovered panic is a 500 whose body is
// the error's first line; its stack stays on the flight recorder.
func TestInternalErrorMapsTo500(t *testing.T) {
	rec := httptest.NewRecorder()
	httpError(rec, fmt.Errorf("service: %w: boom\ngoroutine 1 [running]:", core.ErrInternal))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", rec.Code)
	}
	var body map[string]string
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if want := "service: internal error: boom"; body["error"] != want {
		t.Errorf("body error %q, want %q", body["error"], want)
	}
}

// TestUnsupportedTupleMapsTo400: a tuple the engine cannot run is the
// request's fault, a 400 whose body names the constraint it breaks.
func TestUnsupportedTupleMapsTo400(t *testing.T) {
	adaptive := core.PresetConfig(core.DPIso, nil, nil)
	adaptive.Local = enumerate.Scan
	for _, c := range []struct {
		cfg  core.Config
		want string
	}{
		{adaptive, "adaptive ordering requires intersection-based local candidates"},
		{core.Config{UseGlasgow: true, Homomorphism: true}, "the glasgow engine does not find homomorphisms"},
	} {
		rec := httptest.NewRecorder()
		httpError(rec, c.cfg.Check(5))
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("status = %d, want 400", rec.Code)
		}
		if !strings.Contains(rec.Body.String(), c.want) {
			t.Errorf("body %s does not name %q", rec.Body, c.want)
		}
	}
}

// TestMatchAndBatchItemDecodeAlike sends the same logical request as
// /match query parameters and as a one-item /match/batch body: both go
// through matchRequest.toRequest, so a bad field earns the same status
// either way and a good request the same counts.
func TestMatchAndBatchItemDecodeAlike(t *testing.T) {
	ts, g := newTestServer(t)
	q := graphText(t, testutil.RandomConnectedQuery(rand.New(rand.NewSource(5)), g, 4))

	cases := []struct {
		name  string
		req   matchRequest
		query string // the query graph text; q unless set
		// removed carries a field that left the wire: a parameter and a
		// batch-item key both ignored like any unknown one.
		removed map[string]string
		want    int
	}{
		{name: "defaults", req: matchRequest{Graph: "main"}, want: http.StatusOK},
		{name: "every field", req: matchRequest{Graph: "main", Algo: "CFL", Limit: "3", Timeout: "30s",
			Parallel: "1", Explain: true}, want: http.StatusOK},
		{name: "upper bounds", req: matchRequest{Graph: "main", Parallel: "4096"}, want: http.StatusOK},
		{name: "bad algo", req: matchRequest{Graph: "main", Algo: "WAT"}, want: http.StatusBadRequest},
		{name: "bad timeout", req: matchRequest{Graph: "main", Timeout: "soon"}, want: http.StatusBadRequest},
		{name: "bad limit", req: matchRequest{Graph: "main", Limit: "-1"}, want: http.StatusBadRequest},
		{name: "parallel=-1", req: matchRequest{Graph: "main", Parallel: "-1"}, want: http.StatusBadRequest},
		{name: "workers=4097", req: matchRequest{Graph: "main"}, removed: map[string]string{"workers": "4097"}, want: http.StatusOK},
		{name: "fractional parallel", req: matchRequest{Graph: "main", Parallel: "1.5"}, want: http.StatusBadRequest},
		{name: "missing graph", req: matchRequest{}, want: http.StatusBadRequest},
		{name: "unknown graph", req: matchRequest{Graph: "nope"}, want: http.StatusNotFound},
		{name: "malformed query text", req: matchRequest{Graph: "main"}, query: "v 0 0", want: http.StatusBadRequest},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if c.query == "" {
				c.query = q
			}
			params := url.Values{}
			for k, v := range map[string]string{"graph": c.req.Graph, "algo": c.req.Algo,
				"limit": string(c.req.Limit), "timeout": c.req.Timeout,
				"parallel": string(c.req.Parallel)} {
				if v != "" {
					params.Set(k, v)
				}
			}
			for k, v := range c.removed {
				params.Set(k, v)
			}
			if c.req.Explain {
				params.Set("explain", "1")
			}
			resp, body := do(t, "POST", ts.URL+"/match?"+params.Encode(), c.query)
			if resp.StatusCode != c.want {
				t.Fatalf("/match: status %d %q, want %d", resp.StatusCode, body, c.want)
			}
			var lone matchResult
			if c.want == http.StatusOK {
				if err := json.Unmarshal([]byte(body), &lone); err != nil {
					t.Fatal(err)
				}
			}

			c.req.Query = c.query
			wire, err := json.Marshal(c.req)
			if err != nil {
				t.Fatal(err)
			}
			var fields map[string]any
			if err := json.Unmarshal(wire, &fields); err != nil {
				t.Fatal(err)
			}
			for k, v := range c.removed {
				fields[k] = v
			}
			items, err := json.Marshal([]map[string]any{fields})
			if err != nil {
				t.Fatal(err)
			}
			resp, body = do(t, "POST", ts.URL+"/match/batch", string(items))
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("/match/batch: %d %s", resp.StatusCode, body)
			}
			var out batchResponse
			if err := json.Unmarshal([]byte(body), &out); err != nil || len(out.Results) != 1 {
				t.Fatalf("bad batch response (%v): %s", err, body)
			}
			item := out.Results[0]
			if c.want != http.StatusOK {
				if item.Status != c.want {
					t.Fatalf("batch item: status %d %q, /match said %d", item.Status, item.Error, c.want)
				}
				return
			}
			if item.Result == nil {
				t.Fatalf("batch item failed (%d %q) where /match succeeded", item.Status, item.Error)
			}
			if item.Result.Embeddings != lone.Embeddings || item.Result.LimitHit != lone.LimitHit ||
				item.Result.TimedOut != lone.TimedOut || (item.Result.Profile != nil) != (lone.Profile != nil) {
				t.Errorf("batch item %+v\n/match     %+v", *item.Result, lone)
			}
		})
	}
}

// TestPreprocessingBoundedByAdmission: the workers= parameter and the
// batch item's workers field are ignored, and a plan builds on the
// request's goroutine — its filter span has no worker-N child — though
// four admission units are free.
func TestPreprocessingBoundedByAdmission(t *testing.T) {
	g := testutil.RandomGraph(rand.New(rand.NewSource(7)), 200, 600, 3)
	q := graphText(t, testutil.RandomConnectedQuery(rand.New(rand.NewSource(5)), g, 4))
	batchItem, err := json.Marshal([]map[string]any{{"graph": "main", "query": q, "parallel": 1, "workers": 4}})
	if err != nil {
		t.Fatal(err)
	}
	// find returns the first span named name in the tree under sp.
	var find func(sp *obs.Span, name string) *obs.Span
	find = func(sp *obs.Span, name string) *obs.Span {
		if sp == nil || sp.Name == name {
			return sp
		}
		for _, c := range sp.Children {
			if f := find(c, name); f != nil {
				return f
			}
		}
		return nil
	}
	for _, c := range []struct{ name, path, body string }{
		{"/match", "/match?graph=main&parallel=1&workers=4&trace=1", q},
		{"batch item", "/match/batch?trace=1", string(batchItem)},
	} {
		// A fresh service per case, so each request builds its plan.
		svc := service.New(service.Config{MaxInFlight: 4})
		if _, err := svc.RegisterGraph("main", g, false); err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(newServer(svc, serverOptions{}))
		resp, body := do(t, "POST", ts.URL+c.path, c.body)
		ts.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: %d %s", c.name, resp.StatusCode, body)
		}
		var res matchResult
		if c.name == "/match" {
			err = json.Unmarshal([]byte(body), &res)
		} else {
			var out batchResponse
			if err = json.Unmarshal([]byte(body), &out); err == nil && out.Results[0].Result != nil {
				res = *out.Results[0].Result
			}
		}
		if err != nil {
			t.Fatalf("%s: %v: %s", c.name, err, body)
		}
		filter := find(find(res.Trace, "preprocess"), "filter")
		if filter == nil {
			t.Fatalf("%s: no preprocess/filter span in %s", c.name, body)
		}
		for _, ch := range filter.Children {
			if strings.HasPrefix(ch.Name, "worker-") {
				t.Errorf("%s: filter span has a %s child: the plan was built on more than one goroutine", c.name, ch.Name)
			}
		}
	}
}
