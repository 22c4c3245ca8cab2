package obs

import (
	"math"
	"os"
	"strings"
	"testing"
)

// TestWritePrometheusGolden pins the full text exposition of a registry
// covering every family kind against testdata/exposition.golden:
// HELP/TYPE lines, label escaping, and the histogram _bucket/_sum/
// _count shape, in deterministic order.
func TestWritePrometheusGolden(t *testing.T) {
	r := NewRegistry()

	c := r.Counter("test_requests_total", "Total requests.")
	c.Add(3)

	g := r.Gauge("test_inflight", "In-flight units.")
	g.Set(2)
	g.Add(5)
	g.Add(-3)

	r.GaugeFunc("test_capacity", "Capacity at scrape time.", func() float64 { return 8 })

	r.GaugeVecFunc("test_index_bytes", "Per-graph bytes at scrape time.", "graph", func() []LabeledValue {
		return []LabeledValue{{"g1", 1440}, {"g0", 0}} // rendered sorted by label
	})

	cv := r.CounterVec("test_embeddings_total", "Embeddings per workload.", "graph", "algo")
	cv.With("g1", "Optimized").Add(10)
	cv.With("g0", "CFL").Inc()
	cv.With(`we"ird\nam`+"\ne", "GQL").Add(2)

	h := r.Histogram("test_latency_seconds", "Latency with\nnewline help.", []float64{0.01, 0.1, 1})
	for _, v := range []float64{0.005, 0.02, 0.02, 0.5, 3} {
		h.Observe(v)
	}

	hv := r.HistogramVec("test_phase_seconds", "Per-phase durations.", []float64{0.1, 1}, "phase")
	hv.With("filter").Observe(0.05)
	hv.With("filter").Observe(2)

	var b strings.Builder
	r.WritePrometheus(&b)
	got := b.String()
	golden, err := os.ReadFile("testdata/exposition.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got != string(golden) {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, golden)
	}
}

// TestHistogramInvariants checks the structural invariants a scraper
// relies on: cumulative buckets are monotone, the +Inf bucket equals
// _count, and boundary values land in the right bucket (le is
// inclusive).
func TestHistogramInvariants(t *testing.T) {
	h := newHistogram([]float64{1, 2, 4})
	obs := []float64{0.5, 1, 1.0001, 2, 4, 4.5, 100}
	for _, v := range obs {
		h.Observe(v)
	}
	counts, total, sum := h.snapshot()
	if total != uint64(len(obs)) {
		t.Fatalf("total = %d, want %d", total, len(obs))
	}
	wantPerBucket := []uint64{2, 2, 1, 2} // (<=1)=2, (1,2]=2, (2,4]=1, +Inf=2
	for i, w := range wantPerBucket {
		if counts[i] != w {
			t.Errorf("bucket %d count = %d, want %d", i, counts[i], w)
		}
	}
	var wantSum float64
	for _, v := range obs {
		wantSum += v
	}
	if math.Abs(sum-wantSum) > 1e-9 {
		t.Errorf("sum = %v, want %v", sum, wantSum)
	}
	var cum uint64
	for i := range wantPerBucket {
		cum += counts[i]
	}
	if cum != total {
		t.Errorf("cumulative +Inf bucket %d != count %d", cum, total)
	}
}

func TestCounterVecValue(t *testing.T) {
	r := NewRegistry()
	cv := r.CounterVec("test_total", "t", "a")
	if got := cv.Value("missing"); got != 0 {
		t.Fatalf("Value on missing child = %d, want 0", got)
	}
	cv.With("x").Add(7)
	if got := cv.Value("x"); got != 7 {
		t.Fatalf("Value = %d, want 7", got)
	}
	// Reading a missing child must not have created one.
	var b strings.Builder
	r.WritePrometheus(&b)
	if strings.Contains(b.String(), "missing") {
		t.Errorf("Value created a child:\n%s", b.String())
	}
}

func TestRegistryPanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		fn()
	}
	r := NewRegistry()
	r.Counter("dup_total", "x")
	mustPanic("duplicate", func() { r.Counter("dup_total", "y") })
	mustPanic("bad name", func() { r.Counter("0bad", "y") })
	mustPanic("bad label", func() { r.CounterVec("ok_total", "y", "bad-label") })
	cv := r.CounterVec("labeled_total", "y", "a", "b")
	mustPanic("label arity", func() { cv.With("only-one") })
	mustPanic("bad bounds", func() { r.Histogram("h_seconds", "y", []float64{2, 1}) })
}
