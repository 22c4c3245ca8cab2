package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"subgraphmatching/internal/graph"
	"subgraphmatching/internal/service"
	"subgraphmatching/internal/testutil"
)

func graphText(t *testing.T, g *graph.Graph) string {
	t.Helper()
	var buf bytes.Buffer
	if err := graph.Write(&buf, g); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// newTestServer mounts the smatchd handler over a service with one
// registered random graph.
func newTestServer(t *testing.T) (*httptest.Server, *graph.Graph) {
	t.Helper()
	svc := service.New(service.Config{})
	g := testutil.RandomGraph(rand.New(rand.NewSource(7)), 200, 600, 3)
	if _, err := svc.RegisterGraph("main", g, false); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(newServer(svc, serverOptions{}))
	t.Cleanup(ts.Close)
	return ts, g
}

func do(t *testing.T, method, url, body string) (*http.Response, string) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, string(b)
}

func TestHealthz(t *testing.T) {
	ts, _ := newTestServer(t)
	resp, body := do(t, "GET", ts.URL+"/healthz", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d %q", resp.StatusCode, body)
	}
	var h healthResponse
	if err := json.Unmarshal([]byte(body), &h); err != nil {
		t.Fatalf("healthz body not JSON: %v\n%s", err, body)
	}
	if h.Status != "ok" {
		t.Errorf("status = %q", h.Status)
	}
	if h.Graphs != 1 {
		t.Errorf("graphs = %d, want 1", h.Graphs)
	}
	if h.Capacity <= 0 {
		t.Errorf("capacity = %d, want positive", h.Capacity)
	}
	if h.Uptime <= 0 {
		t.Error("uptime missing")
	}
	if h.InUse != 0 || h.Queued != 0 {
		t.Errorf("idle server reports in_use=%d queued=%d", h.InUse, h.Queued)
	}
}

func TestGraphLifecycle(t *testing.T) {
	ts, _ := newTestServer(t)
	tri := graphText(t, testutil.PaperQuery())

	resp, body := do(t, "PUT", ts.URL+"/graphs/extra", tri)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("put = %d %q", resp.StatusCode, body)
	}
	// Duplicate without replace → 409.
	resp, _ = do(t, "PUT", ts.URL+"/graphs/extra", tri)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate put = %d, want 409", resp.StatusCode)
	}
	// Hot swap → 201 with a higher generation.
	resp, body = do(t, "PUT", ts.URL+"/graphs/extra?replace=1", tri)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("replace put = %d %q", resp.StatusCode, body)
	}
	var info service.GraphInfo
	if err := json.Unmarshal([]byte(body), &info); err != nil {
		t.Fatal(err)
	}
	if info.Generation < 2 {
		t.Fatalf("generation = %d after replace, want >= 2", info.Generation)
	}
	// Malformed graph text → 400.
	resp, _ = do(t, "PUT", ts.URL+"/graphs/bad", "t x y")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad text put = %d, want 400", resp.StatusCode)
	}

	resp, body = do(t, "GET", ts.URL+"/graphs", "")
	var infos []service.GraphInfo
	if err := json.Unmarshal([]byte(body), &infos); err != nil {
		t.Fatal(err)
	}
	if len(infos) != 2 || infos[0].Name != "extra" || infos[1].Name != "main" {
		t.Fatalf("graphs = %+v", infos)
	}

	resp, _ = do(t, "DELETE", ts.URL+"/graphs/extra", "")
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete = %d", resp.StatusCode)
	}
	resp, _ = do(t, "DELETE", ts.URL+"/graphs/extra", "")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("double delete = %d, want 404", resp.StatusCode)
	}
}

func TestMatchAndStats(t *testing.T) {
	ts, g := newTestServer(t)
	q := testutil.RandomConnectedQuery(rand.New(rand.NewSource(5)), g, 4)
	qText := graphText(t, q)

	var first matchResult
	for i := 0; i < 2; i++ {
		resp, body := do(t, "POST", ts.URL+"/match?graph=main&algo=GQL&limit=1000", qText)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("match %d = %d %q", i, resp.StatusCode, body)
		}
		var res matchResult
		if err := json.Unmarshal([]byte(body), &res); err != nil {
			t.Fatal(err)
		}
		if want := i > 0; res.CacheHit != want {
			t.Fatalf("match %d cache_hit = %v, want %v", i, res.CacheHit, want)
		}
		if i == 0 {
			first = res
		} else if res.Embeddings != first.Embeddings {
			t.Fatalf("embeddings diverged: %d vs %d", res.Embeddings, first.Embeddings)
		}
	}

	resp, body := do(t, "GET", ts.URL+"/stats", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats = %d", resp.StatusCode)
	}
	var st service.Stats
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatal(err)
	}
	if st.Cache.Hits != 1 || st.Cache.Misses != 1 {
		t.Fatalf("cache stats = %+v", st.Cache)
	}
	if len(st.Workloads) != 1 || st.Workloads[0].Queries != 2 {
		t.Fatalf("workloads = %+v", st.Workloads)
	}
}

func TestMatchErrorStatusMapping(t *testing.T) {
	ts, g := newTestServer(t)
	q := testutil.RandomConnectedQuery(rand.New(rand.NewSource(5)), g, 4)
	qText := graphText(t, q)
	disconnected := "t 3 1\nv 0 0 1\nv 1 0 1\nv 2 0 0\ne 0 1\n"

	cases := []struct {
		name, url, body string
		want            int
	}{
		{"unknown graph", "/match?graph=nope", qText, http.StatusNotFound},
		{"missing graph param", "/match", qText, http.StatusBadRequest},
		{"bad algo", "/match?graph=main&algo=WAT", qText, http.StatusBadRequest},
		{"bad limit", "/match?graph=main&limit=x", qText, http.StatusBadRequest},
		{"bad query text", "/match?graph=main", "v 0 0", http.StatusBadRequest},
		{"disconnected query", "/match?graph=main", disconnected, http.StatusBadRequest},
		{"negative parallel", "/match?graph=main&parallel=-1", qText, http.StatusBadRequest},
		{"oversized parallel", "/match?graph=main&parallel=1000000", qText, http.StatusBadRequest},
		// workers= left the wire: ignored like any unknown parameter.
		{"negative workers", "/match?graph=main&workers=-2", qText, http.StatusOK},
		{"oversized workers", "/match?graph=main&workers=1000000", qText, http.StatusOK},
		{"deadline", "/match?graph=main&timeout=1ns", qText, http.StatusOK}, // engine timeout → TimedOut result, not an error
		// Pre-stream failures must carry real status codes even with
		// stream=1 — the 200 is committed only at the first embedding.
		{"stream unknown graph", "/match?graph=nope&stream=1", qText, http.StatusNotFound},
		{"stream bad query text", "/match?graph=main&stream=1", "v 0 0", http.StatusBadRequest},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			resp, body := do(t, "POST", ts.URL+c.url, c.body)
			if resp.StatusCode != c.want {
				t.Fatalf("status = %d %q, want %d", resp.StatusCode, body, c.want)
			}
		})
	}
}

// TestHugeQueryHeaderIsRefused: a t line's counts are hints. When the
// parser preallocated them, this 24-byte body ended the daemon with a
// fatal out-of-memory error; now it is an empty query, refused like any
// other, and the server goes on serving.
func TestHugeQueryHeaderIsRefused(t *testing.T) {
	ts, g := newTestServer(t)
	resp, body := do(t, "POST", ts.URL+"/match?graph=main", "t 2000000000 2000000000\n")
	if resp.StatusCode < 400 || resp.StatusCode > 499 {
		t.Fatalf("huge t line: status = %d %q, want 4xx", resp.StatusCode, body)
	}
	q := testutil.RandomConnectedQuery(rand.New(rand.NewSource(5)), g, 4)
	if resp, body = do(t, "POST", ts.URL+"/match?graph=main&limit=10", graphText(t, q)); resp.StatusCode != http.StatusOK {
		t.Fatalf("next match = %d %q, want 200", resp.StatusCode, body)
	}
}

func TestMatchOverloadMapsTo503(t *testing.T) {
	svc := service.New(service.Config{MaxInFlight: 1, MaxQueue: 1, MaxQueueWait: time.Nanosecond})
	g := testutil.RandomGraph(rand.New(rand.NewSource(7)), 200, 600, 3)
	if _, err := svc.RegisterGraph("main", g, false); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(newServer(svc, serverOptions{}))
	t.Cleanup(ts.Close)
	// Hold the only slot directly through the service, then hit HTTP.
	occupied := make(chan struct{})
	release := make(chan struct{})
	done := make(chan error, 1)
	q := testutil.RandomConnectedQuery(rand.New(rand.NewSource(5)), g, 4)
	go func() {
		var once bool
		_, err := svc.Stream(context.Background(), service.Request{Graph: "main", Query: q},
			func(_ []uint32, _ graph.Vertex, vs []uint32) int {
				if !once {
					once = true
					close(occupied)
				}
				<-release
				return len(vs)
			})
		done <- err
	}()
	<-occupied
	resp, body := do(t, "POST", ts.URL+"/match?graph=main", graphText(t, q))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("overload = %d %q, want 503", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 must carry Retry-After")
	}
	// Streaming requests hit admission before committing the 200, so
	// overload surfaces as the same 503 — not an NDJSON error line.
	resp, body = do(t, "POST", ts.URL+"/match?graph=main&stream=1", graphText(t, q))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("stream overload = %d %q, want 503", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("stream 503 must carry Retry-After")
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestMatchStreamNDJSON(t *testing.T) {
	ts, g := newTestServer(t)
	q := testutil.RandomConnectedQuery(rand.New(rand.NewSource(5)), g, 4)
	resp, body := do(t, "POST", ts.URL+"/match?graph=main&algo=GQL&limit=50&stream=1", graphText(t, q))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream = %d %q", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content-type = %q", ct)
	}
	sc := bufio.NewScanner(strings.NewReader(body))
	var embeddings int
	var summary *matchResult
	for sc.Scan() {
		line := sc.Text()
		var rec struct {
			Embedding []uint32               `json:"embedding"`
			Result    *matchResult           `json:"result"`
			Error     string                 `json:"error"`
			Extra     map[string]interface{} `json:"-"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", line, err)
		}
		switch {
		case rec.Error != "":
			t.Fatalf("stream error: %s", rec.Error)
		case rec.Result != nil:
			summary = rec.Result
		default:
			if len(rec.Embedding) != q.NumVertices() {
				t.Fatalf("embedding size = %d, want %d", len(rec.Embedding), q.NumVertices())
			}
			embeddings++
		}
	}
	if summary == nil {
		t.Fatal("stream must end with a result summary line")
	}
	if uint64(embeddings) != summary.Embeddings {
		t.Fatalf("streamed %d embeddings, summary says %d", embeddings, summary.Embeddings)
	}
	if embeddings == 0 {
		t.Fatal("expected at least one embedding in the stream")
	}
}

// TestMatchClientDisconnectReleasesAdmission cancels a JSON /match
// mid-search, as a client that disconnects or gives up does: the search
// runs on the request's own context, so it stops at the engines' next
// poll, the handler answers 499 long before the full search could have
// finished, and the admission units come back. The handler is timed
// from the cancel to its return, which leaves out the test's own
// polling of /debug/requests before it.
func TestMatchClientDisconnectReleasesAdmission(t *testing.T) {
	ts, q := manyMatchServer(t), pathQuery(t, 5)
	// The full search, which also caches the plan: tens of millions of
	// embeddings.
	_, body := do(t, "POST", ts.URL+"/match?graph=main&limit=0", q)
	var full matchResult
	if err := json.Unmarshal([]byte(body), &full); err != nil {
		t.Fatal(err)
	}
	if full.Nodes < 10_000_000 {
		t.Fatalf("fixture too small: %d nodes", full.Nodes)
	}
	for _, parallel := range []string{"1", "2"} {
		ctx, cancel := context.WithCancel(context.Background())
		req := httptest.NewRequest("POST", "/match?graph=main&limit=0&parallel="+parallel, strings.NewReader(q)).WithContext(ctx)
		rec := httptest.NewRecorder()
		done := make(chan struct{})
		go func() {
			defer close(done)
			ts.Config.Handler.ServeHTTP(rec, req)
		}()
		enumerating := func() bool {
			_, out := do(t, "GET", ts.URL+"/debug/requests", "")
			var dr struct {
				Inflight []struct {
					Phase string `json:"phase"`
				} `json:"inflight"`
			}
			if err := json.Unmarshal([]byte(out), &dr); err != nil {
				t.Fatal(err)
			}
			return len(dr.Inflight) == 1 && dr.Inflight[0].Phase == "enumerate"
		}
		for !enumerating() {
			select {
			case <-done:
				t.Fatalf("parallel=%s: finished before it was cancelled: %d %q", parallel, rec.Code, rec.Body)
			case <-time.After(time.Millisecond):
			}
		}
		cancel()
		cancelled := time.Now()
		<-done
		if elapsed := time.Since(cancelled); elapsed > full.Enumerate/4 {
			t.Errorf("parallel=%s: the handler returned %v after the cancel, the full search took %v", parallel, elapsed, full.Enumerate)
		}
		if rec.Code != 499 {
			t.Errorf("parallel=%s: status %d %q, want 499", parallel, rec.Code, rec.Body)
		}
		if got := inUse(t, ts); got != 0 {
			t.Errorf("parallel=%s: in_use = %d after the cancelled request, want 0", parallel, got)
		}
	}
}
