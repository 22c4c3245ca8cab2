package main

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"
	"time"

	"subgraphmatching/internal/core"
	"subgraphmatching/internal/intersect"
	"subgraphmatching/internal/service"
	"subgraphmatching/internal/testutil"
)

// TestMatchReplyMatchesEncodingJSON: the hand-appended /match reply is
// byte for byte what encoding/json writes for the same matchResult, over
// counts at their extremes, every flag and every subset of the kernel
// mix (which a JSON map writes with sorted keys).
func TestMatchReplyMatchesEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	counts := []uint64{0, 1, 9, 10, 1 << 31, math.MaxUint64}
	durs := []time.Duration{0, 1, 999, time.Second, math.MaxInt64, -5}
	for i := range 2000 {
		res := &core.Result{
			Embeddings: counts[rng.Intn(len(counts))] + uint64(rng.Intn(3)),
			Nodes:      counts[rng.Intn(len(counts))],
			TimedOut:   rng.Intn(2) == 0,
			LimitHit:   rng.Intn(2) == 0,
			EnumTime:   durs[rng.Intn(len(durs))],
			FilterTime: durs[rng.Intn(len(durs))] / 3,
			BuildTime:  durs[rng.Intn(len(durs))] / 3,
		}
		for k := range intersect.NumKernels {
			if rng.Intn(2) == 0 {
				res.Kernels[k] = counts[rng.Intn(len(counts))]
			}
		}
		resp := &service.Response{Result: res, CacheHit: i%3 == 0, QueueWait: durs[rng.Intn(len(durs))]}
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(toMatchResult(resp, false)); err != nil {
			t.Fatal(err)
		}
		if got := appendMatchResult(nil, resp); !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("reply\n%s\nencoding/json\n%s", got, want.Bytes())
		}
	}
}

// TestParseParamsMatchesURLValues: parseParams reads a raw query string
// as r.URL.Query().Get reads each of its parameters, on hand-picked
// cases and on random strings over the characters the query grammar
// treats specially.
func TestParseParamsMatchesURLValues(t *testing.T) {
	raws := []string{
		"", "graph=g", "graph=g&graph=h", "graph=&graph=h", "graph", "graph&graph=h",
		"gr%61ph=g%20x", "graph=a+b", "graph=%zz&graph=ok", "graph;x=1&graph=ok",
		"a+b=1", "a%20b=2&a+b=3", "=v&graph=1", "&&graph=g&&", "graph=a=b", "%=1&graph=%",
		"limit=10&trace=1&stream=1", "x=1;graph=g", "graph=%E2%9C%93", "format=text&algo=GQL",
		"timeout=1s&parallel=2&explain=1&trace=0&stream=0&format=json&algo=CFL&limit=5",
	}
	alphabet := []byte("gx=&;%+2a0 Fmt")
	words := []string{"graph", "algo", "limit", "timeout", "parallel", "explain", "trace", "stream", "format"}
	rng := rand.New(rand.NewSource(2))
	for range 20000 {
		var b []byte
		for range rng.Intn(5) {
			if rng.Intn(2) == 0 {
				b = append(b, words[rng.Intn(len(words))]...)
			}
			for range rng.Intn(4) {
				b = append(b, alphabet[rng.Intn(len(alphabet))])
			}
		}
		raws = append(raws, string(b))
	}
	for _, raw := range raws {
		values, _ := url.ParseQuery(raw)
		got := parseParams(raw)
		for _, key := range words {
			field, _ := got.field(key)
			if *field != values.Get(key) {
				t.Fatalf("parseParams(%q).%s = %q, url.Values.Get = %q", raw, key, *field, values.Get(key))
			}
		}
	}
}

// replyWriter is a ResponseWriter that keeps the last reply and reuses
// its header map and body buffer, so a count of the handler's
// allocations holds none of its own.
type replyWriter struct {
	hdr    http.Header
	status int
	body   bytes.Buffer
}

func (w *replyWriter) Header() http.Header { return w.hdr }

func (w *replyWriter) WriteHeader(status int) { w.status = status }

func (w *replyWriter) Write(p []byte) (int, error) { return w.body.Write(p) }

// TestWarmMatchHandlerAllocs is the allocation budget of a warm /match
// through the handler, from the routed request to the written reply:
// the query text comes from the memo, the plan from the cache, and the
// reply is appended by hand. What is left is the body's size limit
// (http.MaxBytesReader) and the service's hit: its flight, result and
// response. The requests are built before the count and the writer
// allocates nothing; net/http's own connection work is not in it.
func TestWarmMatchHandlerAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops a quarter of sync.Pool puts on purpose")
	}
	svc := service.New(service.Config{})
	defer svc.Close()
	g := testutil.RandomGraph(rand.New(rand.NewSource(17)), 2000, 20000, 4)
	if _, err := svc.RegisterGraph("bench", g, false); err != nil {
		t.Fatal(err)
	}
	query := graphText(t, testutil.RandomConnectedQuery(rand.New(rand.NewSource(18)), g, 6))
	h := newServer(svc, serverOptions{})
	const runs, rounds = 50, 10
	reqs := make([]*http.Request, 3+rounds*runs)
	for i := range reqs {
		reqs[i] = httptest.NewRequest("POST", "/match?graph=bench&algo=GQL&limit=100", strings.NewReader(query))
	}
	w := &replyWriter{hdr: http.Header{}}
	w.body.Grow(512)
	next := 0
	serve := func() {
		w.body.Reset()
		h.ServeHTTP(w, reqs[next])
		next++
		if w.status != http.StatusOK || !bytes.Contains(w.body.Bytes(), []byte(`"cache_hit":true`)) {
			t.Fatalf("warm /match: %d %s", w.status, w.body.Bytes())
		}
	}
	h.ServeHTTP(w, reqs[0]) // build the plan and memoize the query
	h.ServeHTTP(w, reqs[1]) // park the plan's engine
	next = 2
	serve()
	// A hit the flight recorder keeps as slow for its band also builds
	// its record and span tree. The recorder keeps the slowest 8 of a
	// band, so the n-th hit is kept with odds of about 8/n: warm it with
	// 2 000 hits, and take the quietest round, the path every other hit
	// takes.
	for range 2000 {
		h.ServeHTTP(w, httptest.NewRequest("POST", "/match?graph=bench&algo=GQL&limit=100", strings.NewReader(query)))
	}
	bytesPer, objects := math.Inf(1), math.Inf(1)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for range rounds {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			serve()
		}
		runtime.ReadMemStats(&after)
		bytesPer = min(bytesPer, float64(after.TotalAlloc-before.TotalAlloc)/runs)
		objects = min(objects, float64(after.Mallocs-before.Mallocs)/runs)
	}
	const maxObjects, maxBytes = 4, 600
	if objects > maxObjects || bytesPer > maxBytes {
		t.Errorf("a warm /match through the handler: %.1f objects, %.0f B; budget %d objects, %d B",
			objects, bytesPer, maxObjects, maxBytes)
	}
	if objects < maxObjects {
		t.Logf("a warm /match through the handler: %.1f objects, under the budget of %d: lower it", objects, maxObjects)
	}
}
