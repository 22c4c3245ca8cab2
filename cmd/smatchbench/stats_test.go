package main

import (
	"math"
	"reflect"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1) // 1..100
	}
	for _, tc := range []struct {
		p    float64
		want float64
	}{{0.5, 50}, {0.95, 95}, {0.99, 99}, {1, 100}, {0, 1}} {
		if got := percentile(xs, tc.p); got != tc.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	if got := percentile([]float64{7}, 0.95); got != 7 {
		t.Errorf("percentile of one sample = %v, want 7", got)
	}
}

// The gated tail is the highest percentile with at least ten samples
// beyond it: on enum-heavy's 576 pooled samples that is p95, not p99.
func TestSupportedNeedsTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		p    float64
		want bool
	}{
		{576, 0.95, true},  // 28 beyond
		{576, 0.99, false}, // 5 beyond
		{144, 0.95, false}, // 7 beyond: one pass per round would not do
		{200, 0.95, true},  // exactly 10
		{1000, 0.99, true},
		{999, 0.99, false}, // 9 beyond
	} {
		if got := supported(tc.n, tc.p); got != tc.want {
			t.Errorf("supported(%d, %v) = %v (%d beyond), want %v", tc.n, tc.p, got, beyond(tc.n, tc.p), tc.want)
		}
	}
	if !supported(workloads[2].Queries*workloads[2].Passes*keptRounds, reportedTail) {
		t.Errorf("enum-heavy's pooled sample does not support the reported tail p%v", reportedTail*100)
	}
}

func TestKeepFastestDropsSlowRoundsAndPools(t *testing.T) {
	rounds := []round{
		{WallS: 4.0, LatMS: []float64{3, 1}, DaemonCPU: 2.0, ClientCPU: 0.5, Ops: 2},
		{WallS: 9.0, LatMS: []float64{90, 91}, DaemonCPU: 2.2, ClientCPU: 0.6, Ops: 2}, // neighbour burst
		{WallS: 3.9, LatMS: []float64{2, 5}, DaemonCPU: 2.1, ClientCPU: 0.5, Ops: 2},
		{WallS: 4.4, LatMS: []float64{40, 41}, DaemonCPU: 2.0, ClientCPU: 0.5, Ops: 2},
		{WallS: 4.1, LatMS: []float64{4}, DaemonCPU: 1.0, ClientCPU: 0.25, Ops: 1}, // one operation failed
	}
	kept := keepFastest(rounds, 3)
	if want := []int{0, 2, 4}; !reflect.DeepEqual(kept, want) {
		t.Fatalf("kept rounds %v, want %v", kept, want)
	}
	p := pool(rounds, kept)
	if want := []float64{1, 2, 3, 4, 5}; !reflect.DeepEqual(p.LatMS, want) {
		t.Errorf("pooled latencies %v, want %v", p.LatMS, want)
	}
	if p.Ops != 5 || math.Abs(p.WallS-12.0) > 1e-9 || math.Abs(p.DaemonCPU-5.1) > 1e-9 || math.Abs(p.ClientCPU-1.25) > 1e-9 {
		t.Errorf("pooled = %+v, want 5 ops over 12.0 s with 5.1 s daemon and 1.25 s client CPU", p)
	}
	// Ties keep run order, and asking for more rounds than exist keeps all.
	if got := keepFastest([]round{{WallS: 1}, {WallS: 1}, {WallS: 1}}, 2); !reflect.DeepEqual(got, []int{0, 1}) {
		t.Errorf("tied rounds kept %v, want [0 1]", got)
	}
	if got := keepFastest(rounds[:2], 3); !reflect.DeepEqual(got, []int{0, 1}) {
		t.Errorf("kept %v of two rounds, want both", got)
	}
}

// quartileSpread must agree with Python's statistics.quantiles(v, n=4),
// which is what the pipeline applies to ten runs.
func TestQuartileSpreadMatchesPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if got, want := quartileSpread(xs), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("quartileSpread(1..10) = %v, want %v", got, want)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if got, want := quartileSpread([]float64{4, 1, 2}), 3.0/2; math.Abs(got-want) > 1e-12 {
		t.Errorf("quartileSpread([1 2 4]) = %v, want %v", got, want)
	}
	// statistics.quantiles([3, 5], n=4) == [2.5, 4.0, 5.5]
	if got, want := quartileSpread([]float64{3, 5}), 3.0/4; math.Abs(got-want) > 1e-12 {
		t.Errorf("quartileSpread([3 5]) = %v, want %v", got, want)
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

// The share is taken over the tenth of the operations around the median
// latency, so one cheap request that was held up until it landed on the
// median does not decide it.
func TestPreprocessShareAtMedianIgnoresOneHeldUpRequest(t *testing.T) {
	var ops []op
	for i := 0; i < 101; i++ {
		lat := time.Duration(1000+i) * time.Microsecond
		o := op{OK: true, Lat: lat, Reply: matchReply{PreprocessNS: int64(lat) * 9 / 10}}
		if i == 50 {
			o.Reply.PreprocessNS = int64(lat) / 10
		}
		ops = append(ops, o)
	}
	ops = append(ops, op{OK: false, Lat: 1050 * time.Microsecond}) // failed operations have no share
	if got := preprocessShareAtMedian(ops); got < 0.8 || got > 0.9 {
		t.Errorf("share %v, want the decile's 0.9 pulled down a little by one 0.1", got)
	}
	if got := preprocessShareAtMedian(nil); got != 0 {
		t.Errorf("share of no operations = %v, want 0", got)
	}
}
