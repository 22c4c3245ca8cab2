package service

import (
	"sync"
	"time"

	"subgraphmatching/internal/core"
	"subgraphmatching/internal/enumerate"
	"subgraphmatching/internal/intersect"
	"subgraphmatching/internal/obs"
)

// serviceMetrics is the service's face on the obs registry: every
// serving-side counter lives here as a metric family, and the JSON
// /stats snapshot reads the same values back — one source of truth, no
// parallel bookkeeping. Request-outcome counters are labeled by
// (graph, algorithm); cache and admission families are unlabeled
// service-wide aggregates, with the point-in-time occupancy exposed as
// gauge functions over the live structures.
//
// Latency percentiles for the JSON snapshot come from a per-workload
// sample ring kept alongside the metrics (Prometheus gets the full
// histogram instead); the ring map doubles as the authoritative set of
// workloads the snapshot enumerates.
type serviceMetrics struct {
	reg *obs.Registry

	requests   *obs.CounterVec
	errors     *obs.CounterVec
	timeouts   *obs.CounterVec
	limitHits  *obs.CounterVec
	rejected   *obs.CounterVec
	cacheHits  *obs.CounterVec // requests served from a cached/shared plan
	embeddings *obs.CounterVec
	latency    *obs.HistogramVec
	phase      *obs.HistogramVec

	kernels *obs.CounterVec // service-wide intersection-kernel mix

	// Scheduler task volumes across parallel requests: every task, and
	// the ones running searches donated to idle workers.
	splitTasks      *obs.Counter
	splitSplitTasks *obs.Counter

	admissionWait *obs.Histogram
	depthNodes    *obs.Histogram // per-depth search-node counts of profiled requests

	planCacheHits      *obs.Counter
	planCacheMisses    *obs.Counter
	planCacheEvictions *obs.Counter
	planCachePurged    *obs.Counter
	planBuilds         *obs.Counter
	planBuildWaits     *obs.Counter

	slowQueries *obs.Counter

	// Batch serving: one batches increment per SubmitBatch call, items
	// counts the requests it carried, groups the distinct (graph, query,
	// config) classes after grouping, and batchDeduped the items served
	// by fanning out another item's identical execution. items - groups
	// is the admission grants and plan lookups batching amortized away.
	batches      *obs.Counter
	batchItems   *obs.Counter
	batchGroups  *obs.Counter
	batchDeduped *obs.Counter
	batchSize    *obs.Histogram

	latMu sync.Mutex
	lat   map[statKey]*latencyRing
}

// batchSizeBuckets cover the useful batch-size range (smatchd caps
// batches at maxBatchItems = 1024).
var batchSizeBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}

// depthNodesBuckets span per-depth search-node counts: decades from a
// single node up to the hundred-million range deep recursion reaches on
// dense graphs.
var depthNodesBuckets = []float64{1, 10, 100, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8}

// newServiceMetrics registers the service's metric families. The gauge
// functions close over the service's live structures, so a scrape always
// reads current occupancy without any recording path.
func newServiceMetrics(s *Service) *serviceMetrics {
	r := obs.NewRegistry()
	m := &serviceMetrics{
		reg: r,
		lat: make(map[statKey]*latencyRing),

		requests: r.CounterVec("smatch_requests_total",
			"Completed match requests.", "graph", "algo"),
		errors: r.CounterVec("smatch_request_errors_total",
			"Requests that failed with an error.", "graph", "algo"),
		timeouts: r.CounterVec("smatch_request_timeouts_total",
			"Requests that hit their time limit or context deadline.", "graph", "algo"),
		limitHits: r.CounterVec("smatch_request_limit_hits_total",
			"Requests stopped at their embedding cap.", "graph", "algo"),
		rejected: r.CounterVec("smatch_requests_rejected_total",
			"Requests refused by admission control.", "graph", "algo"),
		cacheHits: r.CounterVec("smatch_cache_hit_requests_total",
			"Requests served from a cached or singleflight-shared plan.", "graph", "algo"),
		embeddings: r.CounterVec("smatch_embeddings_total",
			"Embeddings reported across completed requests.", "graph", "algo"),
		latency: r.HistogramVec("smatch_request_duration_seconds",
			"End-to-end request latency including queue wait.",
			obs.DefaultDurationBuckets, "graph", "algo"),
		phase: r.HistogramVec("smatch_phase_duration_seconds",
			"Pipeline phase durations (filter, build, order, enumerate).",
			obs.DefaultDurationBuckets, "phase"),

		kernels: r.CounterVec("smatch_intersect_kernel_total",
			"Pairwise intersection-kernel executions by kernel across completed requests.",
			"kernel"),

		splitTasks: r.Counter("smatch_split_tasks_total",
			"Enumeration tasks scheduled across parallel requests."),
		splitSplitTasks: r.Counter("smatch_split_refined_tasks_total",
			"Tasks running searches donated to idle workers."),

		admissionWait: r.Histogram("smatch_admission_wait_seconds",
			"Time requests spent waiting for admission.", obs.DefaultDurationBuckets),
		depthNodes: r.Histogram("smatch_enum_depth_nodes",
			"Search nodes expanded per enumeration depth, one observation per depth of each profiled request.",
			depthNodesBuckets),

		planCacheHits: r.Counter("smatch_plan_cache_hits_total",
			"Plan cache lookups that found an entry."),
		planCacheMisses: r.Counter("smatch_plan_cache_misses_total",
			"Plan cache lookups that missed."),
		planCacheEvictions: r.Counter("smatch_plan_cache_evictions_total",
			"Plans evicted by the LRU."),
		planCachePurged: r.Counter("smatch_plan_cache_purged_total",
			"Plans removed by a graph hot-swap or unregister purge."),
		planBuilds: r.Counter("smatch_plan_builds_total",
			"Preprocessing runs that built a plan (cache misses after singleflight collapsing)."),
		planBuildWaits: r.Counter("smatch_plan_build_waits_total",
			"Requests that waited on another request's in-flight plan build instead of building."),

		slowQueries: r.Counter("smatch_slow_queries_total",
			"Requests at or above the slow-query threshold."),

		batches: r.Counter("smatch_batches_total",
			"SubmitBatch calls completed."),
		batchItems: r.Counter("smatch_batch_items_total",
			"Requests carried by batches."),
		batchGroups: r.Counter("smatch_batch_groups_total",
			"Distinct (graph, query, config) groups across batches."),
		batchDeduped: r.Counter("smatch_batch_dedup_fanout_total",
			"Batch items served by fanning out an identical item's execution."),
		batchSize: r.Histogram("smatch_batch_size",
			"Items per batch.", batchSizeBuckets),
	}

	r.GaugeFunc("smatch_plan_cache_entries",
		"Plans currently cached.", func() float64 {
			if s.cache == nil {
				return 0
			}
			return float64(s.cache.stats().Size)
		})
	r.GaugeFunc("smatch_plan_cache_bytes",
		"Resident bytes held by cached plans (sum of Plan.SizeBytes).", func() float64 {
			if s.cache == nil {
				return 0
			}
			return float64(s.cache.sizeBytes())
		})
	r.GaugeFunc("smatch_admission_capacity",
		"Admission controller capacity in worker units.", func() float64 {
			capacity, _, _ := s.sem.load()
			return float64(capacity)
		})
	r.GaugeFunc("smatch_admission_in_use",
		"Worker units currently admitted.", func() float64 {
			_, inUse, _ := s.sem.load()
			return float64(inUse)
		})
	r.GaugeFunc("smatch_admission_queue_depth",
		"Requests waiting for admission.", func() float64 {
			_, _, queued := s.sem.load()
			return float64(queued)
		})
	r.GaugeFunc("smatch_requests_inflight",
		"Requests currently in flight, read from the flight recorder's live registry.", func() float64 {
			if s.flights == nil {
				return 0
			}
			return float64(s.flights.InflightCount())
		})
	r.GaugeFunc("smatch_graphs_registered",
		"Data graphs currently registered.", func() float64 {
			return float64(len(s.reg.list()))
		})
	r.GaugeVecFunc("smatch_graph_index_bytes",
		"Bytes held by each registered graph's lazily built indexes (0 until first use).", "graph",
		func() []obs.LabeledValue {
			graphs := s.reg.list()
			out := make([]obs.LabeledValue, len(graphs))
			for i, g := range graphs {
				out[i] = obs.LabeledValue{Label: g.Name, Value: float64(g.IndexBytes)}
			}
			return out
		})
	r.GaugeFunc("smatch_uptime_seconds",
		"Seconds since the service started.", func() float64 {
			return time.Since(s.start).Seconds()
		})
	return m
}

// touch ensures the workload appears in the JSON snapshot even when its
// only outcomes so far are rejections or errors, and returns its
// latency ring.
func (m *serviceMetrics) touch(graph, algo string) *latencyRing {
	m.latMu.Lock()
	defer m.latMu.Unlock()
	k := statKey{graph, algo}
	ring, ok := m.lat[k]
	if !ok {
		ring = &latencyRing{}
		m.lat[k] = ring
	}
	return ring
}

// recordError and recordRejected count n requests at once: the items
// of a batch group share one plan build and one admission grant, and
// fail them together.
func (m *serviceMetrics) recordError(graph, algo string, n int) {
	m.touch(graph, algo)
	m.errors.With(graph, algo).Add(uint64(n))
}

func (m *serviceMetrics) recordTimeout(graph, algo string) {
	m.touch(graph, algo)
	m.timeouts.With(graph, algo).Inc()
}

func (m *serviceMetrics) recordRejected(graph, algo string, n int) {
	m.touch(graph, algo)
	m.rejected.With(graph, algo).Add(uint64(n))
}

// recordSuccess applies one completed request's outcome.
func (m *serviceMetrics) recordSuccess(graph, algo string, embeddings uint64,
	cacheHit, timedOut, limitHit bool, latency time.Duration) {

	ring := m.touch(graph, algo)
	m.latMu.Lock()
	ring.add(latency)
	m.latMu.Unlock()

	m.requests.With(graph, algo).Inc()
	m.embeddings.With(graph, algo).Add(embeddings)
	if cacheHit {
		m.cacheHits.With(graph, algo).Inc()
	}
	if timedOut {
		m.timeouts.With(graph, algo).Inc()
	}
	if limitHit {
		m.limitHits.With(graph, algo).Inc()
	}
	m.latency.With(graph, algo).Observe(latency.Seconds())
}

// recordKernels folds one completed request's intersection-kernel mix
// into the service-wide families. Zero tallies create no children, so
// non-intersection workloads leave the families empty.
func (m *serviceMetrics) recordKernels(ks intersect.KernelStats) {
	for i, n := range ks {
		if n != 0 {
			m.kernels.With(intersect.Kernel(i).String()).Add(n)
		}
	}
}

// recordSplit folds one request's scheduler task pool into the
// service-wide families. Sequential requests carry no SplitInfo and
// contribute nothing.
func (m *serviceMetrics) recordSplit(info *core.SplitInfo) {
	if info == nil {
		return
	}
	m.splitTasks.Add(uint64(info.Tasks))
	m.splitSplitTasks.Add(uint64(info.SplitTasks))
}

// observeDepthNodes feeds the per-depth enumeration-heat histogram:
// one observation per depth that expanded any search nodes. Unprofiled
// requests carry no profile and contribute nothing.
func (m *serviceMetrics) observeDepthNodes(prof *enumerate.SearchProfile) {
	if prof == nil {
		return
	}
	for _, n := range prof.Nodes {
		if n != 0 {
			m.depthNodes.Observe(float64(n))
		}
	}
}

// kernelSnapshot reads the kernel families back for the JSON /stats
// view (nil when nothing has been recorded), keeping the snapshot and
// /metrics in agreement.
func (m *serviceMetrics) kernelSnapshot() map[string]uint64 {
	var out map[string]uint64
	for _, name := range intersect.KernelNames() {
		if n := m.kernels.Value(name); n != 0 {
			if out == nil {
				out = make(map[string]uint64, len(intersect.KernelNames()))
			}
			out[name] = n
		}
	}
	return out
}

// observePhases feeds the phase histogram from a request's span tree:
// the preprocessing phases when they were actually paid (cache hits
// skip them) and the enumeration time always.
func (m *serviceMetrics) observePhases(filter, build, order, enum time.Duration, paidPreprocess bool) {
	if paidPreprocess {
		m.phase.With("filter").Observe(filter.Seconds())
		m.phase.With("build").Observe(build.Seconds())
		m.phase.With("order").Observe(order.Seconds())
	}
	m.phase.With("enumerate").Observe(enum.Seconds())
}

// snapshot builds the JSON /stats workload list by reading the counter
// vecs back — the snapshot and /metrics can never disagree.
func (m *serviceMetrics) snapshot() []WorkloadStats {
	m.latMu.Lock()
	keys := make([]statKey, 0, len(m.lat))
	rings := make([]*latencyRing, 0, len(m.lat))
	for k, r := range m.lat {
		keys = append(keys, k)
		rings = append(rings, r)
	}
	m.latMu.Unlock()

	out := make([]WorkloadStats, 0, len(keys))
	for i, k := range keys {
		m.latMu.Lock()
		p50 := rings[i].percentile(0.50)
		p99 := rings[i].percentile(0.99)
		m.latMu.Unlock()
		out = append(out, WorkloadStats{
			Graph:      k.graph,
			Algorithm:  k.algo,
			Queries:    m.requests.Value(k.graph, k.algo),
			CacheHits:  m.cacheHits.Value(k.graph, k.algo),
			Timeouts:   m.timeouts.Value(k.graph, k.algo),
			LimitHits:  m.limitHits.Value(k.graph, k.algo),
			Rejected:   m.rejected.Value(k.graph, k.algo),
			Errors:     m.errors.Value(k.graph, k.algo),
			Embeddings: m.embeddings.Value(k.graph, k.algo),
			P50:        p50,
			P99:        p99,
		})
	}
	sortWorkloads(out)
	return out
}
