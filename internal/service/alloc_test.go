package service

import (
	"bufio"
	"bytes"
	"context"
	"math"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// warmHitAllocBudget is what a cache-hit Submit on the benchService
// fixture allocates: the request's flight, its result and its
// response. The plan's parked engine and the query graph's lazy label
// indexes keep engine construction and index building off this path;
// the workload's metric children are bound once, the spine records the
// request as values and builds its spans only for a flight the recorder
// keeps, and the flight's watcher stands in for context.AfterFunc
// (48 allocations before those). A change that puts an allocation back
// on it moves this number, on purpose or not. BenchmarkServeWarm
// reports the same count.
const warmHitAllocBudget = 3

// TestWarmHitAllocBudget pins the allocations of a warm hit. A hit that
// is slow for its latency band has its record and span tree kept by the
// flight recorder, which allocates; the recorder keeps the slowest 8 of
// a band, so the n-th hit is kept with odds of about 8/n. The test warms
// it with 1 000 hits and takes the quietest of five rounds, the path
// every other hit takes.
func TestWarmHitAllocBudget(t *testing.T) {
	s, req := benchService(t)
	ctx := context.Background()
	for i := 0; i < 1000; i++ { // build the plan, park its engine, fill the recorder's bands
		if _, err := s.Submit(ctx, req); err != nil {
			t.Fatal(err)
		}
	}
	allocs := math.Inf(1)
	for range 5 {
		allocs = min(allocs, testing.AllocsPerRun(50, func() {
			resp, err := s.Submit(ctx, req)
			if err != nil || !resp.CacheHit {
				t.Fatalf("warm Submit: hit %v, err %v", resp != nil && resp.CacheHit, err)
			}
		}))
	}
	if allocs > warmHitAllocBudget {
		t.Errorf("a warm hit allocates %.0f times, budget %d", allocs, warmHitAllocBudget)
	}
	if allocs < warmHitAllocBudget {
		t.Logf("a warm hit allocates %.0f times, under the budget of %d: lower warmHitAllocBudget", allocs, warmHitAllocBudget)
	}
}

// scrapeValue reads one unlabeled sample from a Prometheus text scrape.
func scrapeValue(t *testing.T, s *Service, name string) float64 {
	t.Helper()
	var buf bytes.Buffer
	s.Metrics().WritePrometheus(&buf)
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), name+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			return f
		}
	}
	t.Fatalf("scrape has no %s sample", name)
	return 0
}

// TestRuntimeFamiliesMove: the Go runtime families are on the service's
// scrape, and the allocation counters move across requests.
func TestRuntimeFamiliesMove(t *testing.T) {
	s, req := benchService(t)
	ctx := context.Background()
	counters := []string{"go_heap_allocs_bytes_total", "go_heap_allocs_objects_total"}
	before := make([]float64, len(counters))
	for i, name := range counters {
		before[i] = scrapeValue(t, s, name)
	}
	for i := 0; i < 50; i++ {
		if _, err := s.Submit(ctx, req); err != nil {
			t.Fatal(err)
		}
	}
	for i, name := range counters {
		if after := scrapeValue(t, s, name); after <= before[i] {
			t.Errorf("%s read %v before 50 requests and %v after", name, before[i], after)
		}
	}
	if g := scrapeValue(t, s, "go_goroutines"); g < 1 {
		t.Errorf("go_goroutines = %v", g)
	}
	runtime.GC() // the live-heap gauge reads 0 until a GC cycle has ended
	if b := scrapeValue(t, s, "go_heap_live_bytes"); b <= 0 {
		t.Errorf("go_heap_live_bytes = %v", b)
	}
	scrapeValue(t, s, "go_gc_cycles_total")
}
