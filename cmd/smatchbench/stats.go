package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a percentile before the
// harness gates on it: with fewer, the value is set by one or two
// requests and moves with them.
const minBeyond = 10

// percentile returns the p-quantile (0 <= p <= 1) of an ascending
// slice by nearest rank, 0 when empty.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(math.Ceil(p*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// beyond is how many of n samples lie above the p-quantile.
func beyond(n int, p float64) int {
	return n - int(math.Ceil(p*float64(n)))
}

// supported reports whether n samples leave at least minBeyond of them
// beyond the p-quantile — the rule that picks p95 over p99 as the
// reported tail on enum-heavy's 288 pooled samples.
func supported(n int, p float64) bool {
	return beyond(n, p) >= minBeyond
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// quartileSpread is the distance between the first and third quartile
// as a share of the median, with the quartiles Python's
// statistics.quantiles(values, n=4) gives (the exclusive method) —
// the figure the pipeline compares against a metric's bound.
func quartileSpread(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return 0
	}
	q := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4
		i := int(pos)
		if i < 1 {
			i = 1
		}
		if i > n-1 {
			i = n - 1
		}
		return s[i-1] + (pos-float64(i))*(s[i]-s[i-1])
	}
	med := median(s)
	if med == 0 {
		return 0
	}
	return (q(3) - q(1)) / math.Abs(med)
}

// round is one timed pass over a workload's fixed request sequence.
type round struct {
	WallS     float64   // wall time of the whole round
	LatMS     []float64 // per-operation client latency, successful operations only
	DaemonCPU float64   // daemon utime+stime over the round, seconds
	ClientCPU float64   // generator utime+stime over the round, seconds
	Ops       int       // successful operations
}

// keepFastest returns the indices of the keep fastest rounds by wall
// time, in run order. Dropping the slowest rounds removes neighbour
// bursts on a shared box without touching the program's own tail: every
// round is the same request sequence, so a round is slow because the
// machine was, not because it drew heavier requests.
func keepFastest(rounds []round, keep int) []int {
	idx := make([]int, len(rounds))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return rounds[idx[a]].WallS < rounds[idx[b]].WallS })
	if keep < len(idx) {
		idx = idx[:keep]
	}
	sort.Ints(idx)
	return idx
}

// pooled is the kept rounds added up: every timing metric is computed
// over it.
type pooled struct {
	WallS, DaemonCPU, ClientCPU float64
	Ops                         int
	LatMS                       []float64 // ascending
}

func pool(rounds []round, kept []int) pooled {
	var p pooled
	for _, i := range kept {
		r := rounds[i]
		p.WallS += r.WallS
		p.DaemonCPU += r.DaemonCPU
		p.ClientCPU += r.ClientCPU
		p.Ops += r.Ops
		p.LatMS = append(p.LatMS, r.LatMS...)
	}
	sort.Float64s(p.LatMS)
	return p
}
