package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"subgraphmatching/internal/core"
	"subgraphmatching/internal/obs"
	"subgraphmatching/internal/testutil"
)

// TestSingleflightColdKey hammers one cold cache key with 32 concurrent
// Submits and asserts exactly one plan build happened — the rest either
// joined the in-flight build or hit the cache the leader populated.
func TestSingleflightColdKey(t *testing.T) {
	s, g := newTestService(t, Config{MaxInFlight: 64, MaxQueue: 64})
	defer s.Close()
	q := testutil.RandomConnectedQuery(rand.New(rand.NewSource(2)), g, 4)

	const goroutines = 32
	start := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			_, err := s.Submit(context.Background(), Request{Graph: "main", Query: q})
			if err != nil {
				errs <- err
			}
		}()
	}
	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	if builds := s.metrics.planBuilds.Value(); builds != 1 {
		t.Errorf("plan builds = %d, want exactly 1 under %d-way contention", builds, goroutines)
	}
	waits := s.metrics.planBuildWaits.Value()
	hits := s.metrics.planCacheHits.Value()
	if 1+waits+hits != goroutines {
		t.Errorf("accounting leak: 1 build + %d waits + %d hits != %d requests", waits, hits, goroutines)
	}
	// Every non-leader reported CacheHit (no preprocessing paid).
	if v := s.metrics.cacheHits.Value("main", core.QuickSI.String()); v != goroutines-1 {
		t.Errorf("cache-hit requests = %d, want %d", v, goroutines-1)
	}
}

// TestBuildGroupCollapses pins the buildGroup contract directly: with a
// build function blocked until all waiters have arrived, exactly one
// caller leads and everyone receives the leader's plan.
func TestBuildGroupCollapses(t *testing.T) {
	var bg buildGroup
	key := planKey{graph: "g", gen: 1}
	built := make(chan struct{})
	release := make(chan struct{})
	want := &core.Plan{}

	const waiters = 8
	var wg sync.WaitGroup
	results := make([]*core.Plan, waiters)
	leaders := make([]bool, waiters)

	// The leader blocks inside fn until released.
	wg.Add(1)
	go func() {
		defer wg.Done()
		p, leader, err := bg.do(context.Background(), key, func() (*core.Plan, error) {
			close(built)
			<-release
			return want, nil
		})
		if err != nil {
			t.Error(err)
		}
		results[0], leaders[0] = p, leader
	}()
	<-built // the flight is now registered

	for i := 1; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p, leader, err := bg.do(context.Background(), key, func() (*core.Plan, error) {
				t.Error("second build ran despite in-flight leader")
				return nil, nil
			})
			if err != nil {
				t.Error(err)
			}
			results[i], leaders[i] = p, leader
		}(i)
	}
	// Give followers a moment to park on the flight, then release.
	time.Sleep(10 * time.Millisecond)
	close(release)
	wg.Wait()

	nLeaders := 0
	for i := range results {
		if results[i] != want {
			t.Errorf("caller %d got a different plan", i)
		}
		if leaders[i] {
			nLeaders++
		}
	}
	if nLeaders != 1 {
		t.Errorf("%d leaders, want 1", nLeaders)
	}
}

// TestBuildGroupWaiterHonorsContext: a follower abandoning its wait gets
// the context error while the flight keeps running for others.
func TestBuildGroupWaiterHonorsContext(t *testing.T) {
	var bg buildGroup
	key := planKey{graph: "g"}
	built := make(chan struct{})
	release := make(chan struct{})
	defer close(release)

	go bg.do(context.Background(), key, func() (*core.Plan, error) {
		close(built)
		<-release
		return &core.Plan{}, nil
	})
	<-built

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := bg.do(ctx, key, func() (*core.Plan, error) { return nil, nil })
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

// TestBuildGroupPanicClosesFlight: a build that panics still closes its
// flight. A follower parked on it gets ErrInternal instead of waiting out
// its context, the panic itself reaches the leader, and the next do on
// the key runs a build of its own.
func TestBuildGroupPanicClosesFlight(t *testing.T) {
	var bg buildGroup
	key := planKey{graph: "g"}
	built := make(chan struct{})
	release := make(chan struct{})
	leader := make(chan any, 1)
	go func() {
		defer func() { leader <- recover() }()
		bg.do(context.Background(), key, func() (*core.Plan, error) {
			close(built)
			<-release
			panic("build failed")
		})
	}()
	<-built

	follower := make(chan error, 1)
	go func() {
		_, _, err := bg.do(context.Background(), key, func() (*core.Plan, error) {
			t.Error("a second build ran while the flight was open")
			return nil, nil
		})
		follower <- err
	}()
	// Give the follower a moment to park on the flight, then release.
	time.Sleep(10 * time.Millisecond)
	close(release)
	if r := <-leader; r != "build failed" {
		t.Errorf("leader recovered %v, want the build's panic", r)
	}
	select {
	case err := <-follower:
		if !errors.Is(err, core.ErrInternal) {
			t.Errorf("follower err = %v, want ErrInternal", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("follower still waiting on a flight whose build panicked")
	}

	want := &core.Plan{}
	p, led, err := bg.do(context.Background(), key, func() (*core.Plan, error) { return want, nil })
	if err != nil || !led || p != want {
		t.Errorf("next do = %p, leader %v, err %v; want a fresh build", p, led, err)
	}
}

// TestSubmitTraceShapes checks the request span on the three plan
// paths: fresh build, cache hit, and the nesting invariant everywhere.
func TestSubmitTraceShapes(t *testing.T) {
	s, g := newTestService(t, Config{})
	defer s.Close()
	q := testutil.RandomConnectedQuery(rand.New(rand.NewSource(4)), g, 4)

	var assertNested func(label string, sp *obs.Span)
	assertNested = func(label string, sp *obs.Span) {
		t.Helper()
		if sum := sp.ChildrenDuration(); sum > sp.Duration {
			t.Errorf("%s: %q children %v > own %v", label, sp.Name, sum, sp.Duration)
		}
		for _, c := range sp.Children {
			assertNested(label, c)
		}
	}

	// Cold: fresh build → full preprocess span.
	resp, err := s.Submit(context.Background(), Request{Graph: "main", Query: q})
	if err != nil {
		t.Fatal(err)
	}
	root := resp.Trace()
	if root == nil || root.Name != "request" {
		t.Fatalf("cold: root = %+v, want request span", root)
	}
	assertNested("cold", root)
	if root.Child("admission") == nil {
		t.Error("cold: no admission span")
	}
	match := root.Child("match")
	if match == nil {
		t.Fatal("cold: no match span")
	}
	if match.Child("preprocess") == nil || match.Child("enumerate") == nil {
		t.Errorf("cold: match children = %v", spanNames(match.Children))
	}

	// Warm: cache hit → "plan" span with cached + saved_ns attrs, and
	// no preprocess span (its durations were not paid this request).
	resp, err = s.Submit(context.Background(), Request{Graph: "main", Query: q})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.CacheHit {
		t.Fatal("second submit did not hit the cache")
	}
	root = resp.Trace()
	assertNested("warm", root)
	match = root.Child("match")
	if match == nil {
		t.Fatal("warm: no match span")
	}
	if match.Child("preprocess") != nil {
		t.Error("warm: cache hit still carries the preprocess span (breaks the wall-time invariant)")
	}
	plan := match.Child("plan")
	if plan == nil {
		t.Fatal("warm: no plan span")
	}
	if plan.Attr("cached") != true {
		t.Error("warm: plan span not marked cached")
	}
	saved, ok := plan.Attr("saved_ns").(int64)
	if !ok || saved <= 0 {
		t.Errorf("warm: saved_ns = %v, want positive int64", plan.Attr("saved_ns"))
	}
}

func spanNames(spans []*obs.Span) []string {
	out := make([]string, len(spans))
	for i, s := range spans {
		out[i] = s.Name
	}
	return out
}

// TestSlowQueryLog drives a request over a zero...tiny threshold and
// checks the NDJSON record: one parseable line carrying the query
// fingerprint, workload, outcome and span tree.
func TestSlowQueryLog(t *testing.T) {
	var buf bytes.Buffer
	var mu sync.Mutex
	s := New(Config{SlowQueryLog: syncWriter{&mu, &buf}, SlowQueryThreshold: time.Nanosecond})
	defer s.Close()
	g := testutil.RandomGraph(rand.New(rand.NewSource(7)), 300, 900, 3)
	if _, err := s.RegisterGraph("main", g, false); err != nil {
		t.Fatal(err)
	}
	q := testutil.RandomConnectedQuery(rand.New(rand.NewSource(5)), g, 4)

	if _, err := s.Submit(context.Background(), Request{Graph: "main", Query: q, Algorithm: core.CFL}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(context.Background(), Request{Graph: "main", Query: q, Algorithm: core.CFL}); err != nil {
		t.Fatal(err)
	}

	mu.Lock()
	out := buf.String()
	mu.Unlock()
	sc := bufio.NewScanner(strings.NewReader(out))
	var lines []string
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	if len(lines) != 2 {
		t.Fatalf("%d slow-log lines, want 2:\n%s", len(lines), out)
	}
	var rec slowQueryRecord
	if err := json.Unmarshal([]byte(lines[0]), &rec); err != nil {
		t.Fatalf("line 0 not valid JSON: %v", err)
	}
	if rec.Graph != "main" || rec.Algorithm != "CFL" {
		t.Errorf("workload = %s/%s", rec.Graph, rec.Algorithm)
	}
	if len(rec.QueryFP) != 16 {
		t.Errorf("query_fp %q, want 16 hex chars", rec.QueryFP)
	}
	if rec.LatencyNS <= 0 {
		t.Error("latency_ns missing")
	}
	if rec.Trace == nil || rec.Trace.Name != "request" {
		t.Fatalf("trace missing or misnamed: %+v", rec.Trace)
	}
	if rec.Trace.Child("match") == nil {
		t.Error("trace has no match child")
	}
	// Both lines share the fingerprint: same query.
	var rec2 slowQueryRecord
	if err := json.Unmarshal([]byte(lines[1]), &rec2); err != nil {
		t.Fatal(err)
	}
	if rec2.QueryFP != rec.QueryFP {
		t.Error("same query produced different fingerprints")
	}
	if !rec2.CacheHit {
		t.Error("second record should be a cache hit")
	}
	if v := s.metrics.slowQueries.Value(); v != 2 {
		t.Errorf("slow_queries_total = %d, want 2", v)
	}
}

// syncWriter serializes writes for the race detector; the service also
// locks internally, but the test reads the buffer concurrently-ish.
type syncWriter struct {
	mu *sync.Mutex
	w  *bytes.Buffer
}

func (s syncWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Write(p)
}

// TestStatsMatchMetrics asserts the JSON snapshot and the registry
// agree after a mixed workload — the migration's whole point.
func TestStatsMatchMetrics(t *testing.T) {
	s, g := newTestService(t, Config{})
	defer s.Close()
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 5; i++ {
		q := testutil.RandomConnectedQuery(rng, g, 3+i%3)
		// Profile one request so the depth-nodes histogram has samples.
		if _, err := s.Submit(context.Background(), Request{Graph: "main", Query: q, Profile: i == 0}); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	var jsonQueries uint64
	for _, w := range st.Workloads {
		jsonQueries += w.Queries
	}
	var promQueries uint64
	for _, w := range st.Workloads {
		promQueries += s.metrics.requests.Value(w.Graph, w.Algorithm)
	}
	if jsonQueries != 5 || promQueries != 5 {
		t.Errorf("queries: json %d, prom %d, want 5", jsonQueries, promQueries)
	}
	// The flight-recorder gauge and the depth-heat histogram read back
	// through /stats by construction: same sources.
	if st.Inflight != 0 || st.Inflight != s.flights.InflightCount() {
		t.Errorf("inflight = %d (recorder %d), want 0", st.Inflight, s.flights.InflightCount())
	}
	if st.DepthSamples == 0 {
		t.Error("profiled request recorded no depth samples")
	}
	if st.DepthSamples != s.metrics.depthNodes.Count() {
		t.Errorf("depth samples: json %d, histogram %d", st.DepthSamples, s.metrics.depthNodes.Count())
	}
	// The exposition itself must carry the families.
	var buf bytes.Buffer
	s.Metrics().WritePrometheus(&buf)
	for _, family := range []string{
		"smatch_requests_total", "smatch_request_duration_seconds",
		"smatch_plan_cache_hits_total", "smatch_plan_builds_total",
		"smatch_admission_capacity", "smatch_phase_duration_seconds",
		"smatch_requests_inflight", "smatch_enum_depth_nodes",
	} {
		if !strings.Contains(buf.String(), family) {
			t.Errorf("exposition missing %s", family)
		}
	}
}

// phaseSum reads the phase histogram's running sum for phase from a
// scrape, 0 while the phase has no child yet.
func phaseSum(t *testing.T, s *Service, phase string) float64 {
	t.Helper()
	var buf bytes.Buffer
	s.Metrics().WritePrometheus(&buf)
	prefix := `smatch_phase_duration_seconds_sum{phase="` + phase + `"} `
	for _, line := range strings.Split(buf.String(), "\n") {
		if v, ok := strings.CutPrefix(line, prefix); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatalf("%s: %v", line, err)
			}
			return f
		}
	}
	return 0
}

// TestPhaseRecordsAgree: a request's phases are recorded once, as values
// on its Result, and the phase histogram, the span tree and EXPLAIN all
// read those — for the request that built its plan and for a hit, whose
// "plan" span reports the preprocessing the build paid.
func TestPhaseRecordsAgree(t *testing.T) {
	s, g := newTestService(t, Config{})
	defer s.Close()
	q := testutil.RandomConnectedQuery(rand.New(rand.NewSource(9)), g, 5)
	phases := []string{"filter", "build", "order", "enumerate"}
	var built time.Duration
	for _, hit := range []bool{false, true} {
		before := make(map[string]float64)
		for _, p := range phases {
			before[p] = phaseSum(t, s, p)
		}
		resp, err := s.Submit(context.Background(), Request{Graph: "main", Query: q, Algorithm: core.GraphQL, Profile: true})
		if err != nil {
			t.Fatal(err)
		}
		if resp.CacheHit != hit {
			t.Fatalf("hit %v, want %v", resp.CacheHit, hit)
		}
		res := resp.Result
		want := map[string]time.Duration{"enumerate": res.EnumTime}
		if !hit {
			want["filter"], want["build"], want["order"] = res.FilterTime, res.BuildTime, res.OrderTime
			built = res.PreprocessTime()
		}
		for _, p := range phases {
			got := phaseSum(t, s, p) - before[p]
			if math.Abs(got-want[p].Seconds()) > 1e-9 {
				t.Errorf("hit %v: the %s histogram grew by %gs, the Result says %v", hit, p, got, want[p])
			}
		}
		match := resp.Trace().Child("match")
		if d := match.Child("enumerate").Duration; d != res.EnumTime {
			t.Errorf("hit %v: enumerate span %v, Result %v", hit, d, res.EnumTime)
		}
		if hit {
			if saved := match.Child("plan").Attr("saved_ns"); saved != built.Nanoseconds() {
				t.Errorf("plan span saved_ns = %v, the build paid %v", saved, built)
			}
			continue
		}
		pre := match.Child("preprocess")
		for _, p := range phases[:3] {
			if d := pre.Child(p).Duration; d != want[p] {
				t.Errorf("%s span %v, Result %v", p, d, want[p])
			}
		}
		stages := pre.Child("filter").Children
		if len(stages) != len(res.Explain.Filter) {
			t.Fatalf("filter span has %d stages, EXPLAIN %d", len(stages), len(res.Explain.Filter))
		}
		for i, st := range res.Explain.Filter {
			if stages[i].Name != st.Name || stages[i].Duration.Nanoseconds() != st.DurationNS {
				t.Errorf("stage %d: span %s %v, EXPLAIN %s %dns", i, stages[i].Name, stages[i].Duration, st.Name, st.DurationNS)
			}
		}
	}
}
