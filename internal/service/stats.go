package service

import (
	"sort"
	"time"
)

// latencySampleSize is how many recent request latencies each workload
// keeps for percentile estimation. A fixed ring bounds memory per
// workload; 512 samples put the p99 estimate within a handful of
// requests of the true tail at serving rates.
const latencySampleSize = 512

// latencyRing is a fixed-size ring of recent latencies. The workload
// counters themselves live on the obs registry (see serviceMetrics);
// the ring survives because exact p50/p99 over recent requests is a
// different quantity than a fixed-bucket histogram can provide, and the
// JSON /stats consumers rely on it. Read from the latency histogram, a
// quantile is known only to within its bucket: the bounds step by 2–2.5×
// (obs.DefaultDurationBuckets), so a warm hit's p50 of 40 µs would read
// as "somewhere below 100 µs" and one of 300 µs as anywhere in 250–500
// µs — an error of up to 150 % that no interpolation bounds, and one
// that covers every request since start, not the recent ones.
type latencyRing struct {
	buf  [latencySampleSize]time.Duration
	n    int // total recorded (saturates the ring at len(buf))
	next int
}

func (r *latencyRing) add(d time.Duration) {
	r.buf[r.next] = d
	r.next = (r.next + 1) % len(r.buf)
	if r.n < len(r.buf) {
		r.n++
	}
}

// percentile returns the p-quantile (0 < p <= 1) of the retained
// samples, 0 when empty. Called under the workload's lock.
func (r *latencyRing) percentile(p float64) time.Duration {
	if r.n == 0 {
		return 0
	}
	tmp := make([]time.Duration, r.n)
	copy(tmp, r.buf[:r.n])
	sort.Slice(tmp, func(i, j int) bool { return tmp[i] < tmp[j] })
	idx := int(p*float64(r.n)) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= r.n {
		idx = r.n - 1
	}
	return tmp[idx]
}

// WorkloadStats reports one (graph, algorithm) pair's counters. Latency
// percentiles cover the most recent latencySampleSize requests and
// include queue wait.
type WorkloadStats struct {
	Graph      string        `json:"graph"`
	Algorithm  string        `json:"algorithm"`
	Queries    uint64        `json:"queries"`
	CacheHits  uint64        `json:"cache_hits"`
	Timeouts   uint64        `json:"timeouts"`
	LimitHits  uint64        `json:"limit_hits"`
	Rejected   uint64        `json:"rejected"`
	Errors     uint64        `json:"errors"`
	Embeddings uint64        `json:"embeddings"`
	P50        time.Duration `json:"p50_ns"`
	P99        time.Duration `json:"p99_ns"`
}

type statKey struct{ graph, algo string }

func sortWorkloads(out []WorkloadStats) {
	sort.Slice(out, func(i, j int) bool {
		if out[i].Graph != out[j].Graph {
			return out[i].Graph < out[j].Graph
		}
		return out[i].Algorithm < out[j].Algorithm
	})
}

// Stats is the full service snapshot smatchd serves on /stats.
type Stats struct {
	Uptime    time.Duration   `json:"uptime_ns"`
	Graphs    []GraphInfo     `json:"graphs"`
	Cache     CacheStats      `json:"cache"`
	Admission AdmissionStats  `json:"admission"`
	Workloads []WorkloadStats `json:"workloads"`
	// Kernels is the service-wide intersection-kernel mix: pairwise
	// kernel executions by kernel name across all completed requests
	// (the smatch_intersect_kernel_total families). Nil until an
	// intersection-based request completes.
	Kernels map[string]uint64 `json:"kernels,omitempty"`
	// Batches reports the batched-serving counters.
	Batches BatchStats `json:"batches"`
	// Inflight is the number of requests currently in flight, read from
	// the flight recorder's live registry — the same source as the
	// smatch_requests_inflight gauge.
	Inflight int `json:"inflight"`
	// DepthSamples counts the per-depth heat observations profiled
	// requests have recorded (the smatch_enum_depth_nodes histogram's
	// sample count).
	DepthSamples uint64 `json:"enum_depth_samples"`
}

// BatchStats reports SubmitBatch's amortization: Items - Groups is how
// many admission grants and plan lookups grouping saved, and Deduped
// how many items were served by fanning out an identical item's run.
type BatchStats struct {
	Batches uint64 `json:"batches"`
	Items   uint64 `json:"items"`
	Groups  uint64 `json:"groups"`
	Deduped uint64 `json:"deduped"`
}

// AdmissionStats reports the admission controller's occupancy.
type AdmissionStats struct {
	Capacity int64 `json:"capacity"`
	InUse    int64 `json:"in_use"`
	Queued   int   `json:"queued"`
}
