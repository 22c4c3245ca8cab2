package main

import (
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"subgraphmatching/internal/service"
	"subgraphmatching/internal/testutil"
)

// promValue extracts the value of a single un-labelled or labelled
// sample line from a text exposition. Returns the sum over all lines
// of the family (so labelled counters aggregate across label sets).
func promValue(t *testing.T, exposition, family string) float64 {
	t.Helper()
	re := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(family) + `(?:\{[^}]*\})? ([0-9eE+.-]+)$`)
	var sum float64
	for _, m := range re.FindAllStringSubmatch(exposition, -1) {
		v, err := strconv.ParseFloat(m[1], 64)
		if err != nil {
			t.Fatalf("bad sample for %s: %q", family, m[1])
		}
		sum += v
	}
	return sum
}

// TestMetricsEndpoint round-trips /metrics over HTTP: the exposition
// must be well-formed, and the request, cache, and admission families
// must move after a /match is served.
func TestMetricsEndpoint(t *testing.T) {
	ts, g := newTestServer(t)

	resp, before := do(t, "GET", ts.URL+"/metrics", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content-type = %q", ct)
	}
	if v := promValue(t, before, "smatch_requests_total"); v != 0 {
		t.Errorf("requests before any match = %v", v)
	}
	if v := promValue(t, before, "smatch_admission_capacity"); v <= 0 {
		t.Errorf("admission capacity = %v, want positive", v)
	}

	// Serve one match, twice: a build then a cache hit.
	q := testutil.RandomConnectedQuery(rand.New(rand.NewSource(5)), g, 4)
	body := graphText(t, q)
	for i := 0; i < 2; i++ {
		resp, out := do(t, "POST", ts.URL+"/match?graph=main", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("match %d = %d %q", i, resp.StatusCode, out)
		}
	}

	_, after := do(t, "GET", ts.URL+"/metrics", "")
	if v := promValue(t, after, "smatch_requests_total"); v != 2 {
		t.Errorf("requests after 2 matches = %v", v)
	}
	if v := promValue(t, after, "smatch_plan_builds_total"); v != 1 {
		t.Errorf("plan builds = %v, want 1", v)
	}
	if v := promValue(t, after, "smatch_plan_cache_hits_total"); v != 1 {
		t.Errorf("plan cache hits = %v, want 1", v)
	}
	if v := promValue(t, after, "smatch_plan_cache_entries"); v != 1 {
		t.Errorf("plan cache entries = %v, want 1", v)
	}
	if v := promValue(t, after, "smatch_request_duration_seconds_count"); v != 2 {
		t.Errorf("latency observations = %v, want 2", v)
	}
	// Idle again: nothing in flight or queued.
	if v := promValue(t, after, "smatch_admission_in_use"); v != 0 {
		t.Errorf("in_use after requests drained = %v", v)
	}
}

// TestGraphIndexBytesReported: the lazily built NLF index shows up where
// an operator looks for graph memory — index_bytes on GET /graphs and
// the smatch_graph_index_bytes{graph=…} gauge — as 0 until the first
// filter run, as the graph's own figure afterwards, and not at all once
// the graph is unregistered.
func TestGraphIndexBytesReported(t *testing.T) {
	ts, g := newTestServer(t)
	indexBytes := func() (listed int64, metric float64) {
		t.Helper()
		_, body := do(t, "GET", ts.URL+"/graphs", "")
		var infos []struct {
			Name       string
			IndexBytes *int64 `json:"index_bytes"`
		}
		if err := json.Unmarshal([]byte(body), &infos); err != nil {
			t.Fatalf("GET /graphs: %v in %q", err, body)
		}
		if len(infos) != 1 || infos[0].Name != "main" || infos[0].IndexBytes == nil {
			t.Fatalf("GET /graphs = %q, want one graph with index_bytes", body)
		}
		_, metrics := do(t, "GET", ts.URL+"/metrics", "")
		m := regexp.MustCompile(`(?m)^smatch_graph_index_bytes\{graph="main"\} (\S+)$`).FindStringSubmatch(metrics)
		if m == nil {
			t.Fatalf("no smatch_graph_index_bytes{graph=\"main\"} sample in /metrics")
		}
		v, err := strconv.ParseFloat(m[1], 64)
		if err != nil {
			t.Fatalf("bad smatch_graph_index_bytes sample %q", m[1])
		}
		return *infos[0].IndexBytes, v
	}

	if listed, metric := indexBytes(); listed != 0 || metric != 0 {
		t.Fatalf("before any match: index_bytes %d, gauge %v; want 0", listed, metric)
	}
	q := testutil.RandomConnectedQuery(rand.New(rand.NewSource(5)), g, 4)
	if resp, out := do(t, "POST", ts.URL+"/match?graph=main", graphText(t, q)); resp.StatusCode != http.StatusOK {
		t.Fatalf("match = %d %q", resp.StatusCode, out)
	}
	want := g.IndexBytes()
	if want == 0 {
		t.Fatal("a served match left the graph without its NLF index")
	}
	if listed, metric := indexBytes(); listed != want || metric != float64(want) {
		t.Fatalf("after a match: index_bytes %d, gauge %v; want %d", listed, metric, want)
	}

	do(t, "DELETE", ts.URL+"/graphs/main", "")
	if _, metrics := do(t, "GET", ts.URL+"/metrics", ""); strings.Contains(metrics, "smatch_graph_index_bytes{") {
		t.Error("smatch_graph_index_bytes still has a sample after the graph was unregistered")
	}
}

// TestMatchTraceParam: trace=1 attaches the span tree to the /match
// result; without it the field is absent.
func TestMatchTraceParam(t *testing.T) {
	ts, g := newTestServer(t)
	q := testutil.RandomConnectedQuery(rand.New(rand.NewSource(5)), g, 4)
	body := graphText(t, q)

	resp, out := do(t, "POST", ts.URL+"/match?graph=main", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("match = %d %q", resp.StatusCode, out)
	}
	if strings.Contains(out, `"trace"`) {
		t.Error("untraced result carries a trace field")
	}

	resp, out = do(t, "POST", ts.URL+"/match?graph=main&trace=1", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("traced match = %d %q", resp.StatusCode, out)
	}
	var res matchResult
	if err := json.Unmarshal([]byte(out), &res); err != nil {
		t.Fatal(err)
	}
	if res.Trace == nil || res.Trace.Name != "request" {
		t.Fatalf("trace = %+v, want request span", res.Trace)
	}
	if res.Trace.Child("match") == nil || res.Trace.Child("admission") == nil {
		t.Errorf("trace children incomplete: %+v", res.Trace.Children)
	}
}

// TestPprofGated: the profiling endpoints exist only when opted in.
func TestPprofGated(t *testing.T) {
	svc := service.New(service.Config{})
	t.Cleanup(func() { svc.Close() })

	off := httptest.NewServer(newServer(svc, serverOptions{}))
	t.Cleanup(off.Close)
	resp, _ := do(t, "GET", off.URL+"/debug/pprof/", "")
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("pprof without -pprof = %d, want 404", resp.StatusCode)
	}

	on := httptest.NewServer(newServer(svc, serverOptions{pprof: true}))
	t.Cleanup(on.Close)
	resp, body := do(t, "GET", on.URL+"/debug/pprof/", "")
	if resp.StatusCode != http.StatusOK {
		t.Errorf("pprof index = %d", resp.StatusCode)
	}
	if !strings.Contains(body, "goroutine") {
		t.Errorf("pprof index unexpected body: %.100s", body)
	}
}
