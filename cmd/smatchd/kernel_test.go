package main

import (
	"encoding/json"
	"maps"
	"math/rand"
	"net/http"
	"testing"

	"subgraphmatching/internal/service"
	"subgraphmatching/internal/testutil"
)

// TestMatchKernelParam: the daemon runs every request under the adaptive
// kernel policy and the default scheduler. kernel=, split= and
// splitfactor= (and the batch fields kernel, split, split_factor) were
// request knobs once and are now ignored like any unknown parameter —
// same embeddings, same plan, same mix — and the kernel mix surfaces in
// the match result, the trace, /stats and /metrics.
func TestMatchKernelParam(t *testing.T) {
	ts, g := newTestServer(t)
	// Seed 0 at size 5 yields a cyclic query (6 edges) on the test graph:
	// some vertex has two backward neighbors, so the Optimized preset's
	// intersect local actually executes pairwise kernels.
	q := testutil.RandomConnectedQuery(rand.New(rand.NewSource(0)), g, 5)
	qText := graphText(t, q)

	match := func(params string) matchResult {
		t.Helper()
		resp, body := do(t, "POST", ts.URL+"/match?graph=main"+params, qText)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("/match?graph=main%s: %d %q", params, resp.StatusCode, body)
		}
		var res matchResult
		if err := json.Unmarshal([]byte(body), &res); err != nil {
			t.Fatal(err)
		}
		return res
	}
	ref := match("")
	if ref.CacheHit {
		t.Fatal("first request hit the plan cache")
	}
	if len(ref.Kernels) == 0 {
		t.Fatalf("result carries no kernel mix: %+v", ref)
	}
	for name := range ref.Kernels {
		switch name {
		case "merge", "gallop", "block":
		default:
			t.Errorf("unknown kernel label %q in mix", name)
		}
	}
	// A pinned kernel would build its own plan; an ignored parameter
	// hits the one the plain request built and runs the same mix. "simd"
	// was never a kernel: it is not even parsed.
	for _, params := range []string{"&kernel=merge", "&kernel=simd", "&split=static", "&splitfactor=7", "&kernel=merge&split=static&splitfactor=7"} {
		res := match(params)
		if res.Embeddings != ref.Embeddings {
			t.Errorf("%s: %d embeddings, want %d", params, res.Embeddings, ref.Embeddings)
		}
		if !res.CacheHit {
			t.Errorf("%s: missed the plan the plain request built", params)
		}
		if !maps.Equal(res.Kernels, ref.Kernels) {
			t.Errorf("%s: kernel mix %v, want the adaptive mix %v", params, res.Kernels, ref.Kernels)
		}
	}

	items, err := json.Marshal([]map[string]any{
		{"graph": "main", "query": qText},
		{"graph": "main", "query": qText, "kernel": "merge", "split": "static", "split_factor": 7},
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, body := do(t, "POST", ts.URL+"/match/batch", string(items))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/match/batch: %d %s", resp.StatusCode, body)
	}
	var out batchResponse
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatalf("bad batch response: %v\n%s", err, body)
	}
	if out.Errors != 0 || len(out.Results) != 2 {
		t.Fatalf("batch envelope = errors %d results %d: %s", out.Errors, len(out.Results), body)
	}
	for i, r := range out.Results {
		if r.Result == nil || r.Result.Embeddings != ref.Embeddings || !r.Result.CacheHit ||
			!maps.Equal(r.Result.Kernels, ref.Kernels) {
			t.Errorf("batch item %d = %+v, want the plain request's result off its plan", i, r.Result)
		}
	}

	// The trace's enumerate span carries the mix as per-kernel attributes.
	res := match("&trace=1")
	if res.Trace == nil {
		t.Fatal("trace=1 returned no trace")
	}
	enum := res.Trace.Child("match").Child("enumerate")
	for name, n := range ref.Kernels {
		if got := enum.Attr("kernel_" + name); got != float64(n) {
			t.Errorf("enumerate span kernel_%s = %v, want %d", name, got, n)
		}
	}

	resp, body = do(t, "GET", ts.URL+"/stats", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats: %d", resp.StatusCode)
	}
	var st service.Stats
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatal(err)
	}
	var total uint64
	for _, n := range st.Kernels {
		total += n
	}
	if total == 0 {
		t.Errorf("service-wide kernel mix empty after intersect requests: %s", body)
	}

	// The Prometheus families agree.
	resp, body = do(t, "GET", ts.URL+"/metrics", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: %d", resp.StatusCode)
	}
	if !containsKernelFamily(body) {
		t.Errorf("metrics exposition lacks smatch_intersect_kernel_total:\n%s", body)
	}
}

func containsKernelFamily(body string) bool {
	for i := 0; i+30 <= len(body); i++ {
		if body[i:i+30] == "smatch_intersect_kernel_total{" {
			return true
		}
	}
	return false
}
