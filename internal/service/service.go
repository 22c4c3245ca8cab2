package service

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"sync/atomic"
	"time"

	"subgraphmatching/internal/core"
	"subgraphmatching/internal/graph"
	"subgraphmatching/internal/obs"
	"subgraphmatching/internal/obs/flight"
)

// Config sizes the service. The zero value gets sensible defaults from
// New; a negative PlanCacheSize disables plan caching entirely.
type Config struct {
	// MaxInFlight caps the total workers running at once across all
	// requests (a request with Parallel=4 holds 4 units and enumerates
	// on 4). Requests asking for more are clamped to it — admission
	// weight and actual worker count always agree. Default: 2×GOMAXPROCS.
	MaxInFlight int
	// MaxQueue bounds how many requests may wait for admission; one
	// more arrival is rejected with ErrQueueFull. Default: 64.
	MaxQueue int
	// MaxQueueWait bounds how long one request may wait for admission
	// before ErrQueueTimeout. Default: 5s.
	MaxQueueWait time.Duration
	// PlanCacheSize bounds the plan LRU's entry count — a secondary
	// bound on map/list overhead; the primary bound is PlanCacheBytes.
	// 0 means the default of 256; negative disables caching entirely.
	PlanCacheSize int
	// PlanCacheBytes bounds the plan LRU by resident plan bytes
	// (core.Plan.SizeBytes — candidate sets + CSR + flat block arena).
	// Plans are CSR-dominated and wildly uneven, so the byte budget, not
	// the entry count, is what actually bounds cache memory. 0 means the
	// default of 256 MiB; negative leaves the byte bound off (entry
	// bound only).
	PlanCacheBytes int64
	// MaxGraphShare caps one graph's share of the admission wait queue
	// (per-tenant fairness): a graph already holding
	// MaxGraphShare*MaxQueue queue slots gets ErrTenantSaturated instead
	// of crowding out the other graphs' arrivals. 0 means the default of
	// 0.5; negative (or >= 1) disables the clamp.
	MaxGraphShare float64
	// DefaultTimeLimit applies to requests that set no TimeLimit,
	// mirroring the paper's five-minute per-query budget. Default: 5m.
	DefaultTimeLimit time.Duration
	// SlowQueryLog, when non-nil, receives one NDJSON line (query
	// fingerprint, config, outcome, span breakdown) for every request
	// whose end-to-end latency reaches SlowQueryThreshold. Writes are
	// serialized by the service.
	SlowQueryLog io.Writer
	// SlowQueryThreshold gates the slow-query log. Default when a log
	// writer is set: 1s.
	SlowQueryThreshold time.Duration
}

func (c Config) withDefaults() Config {
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 2 * runtime.GOMAXPROCS(0)
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 64
	}
	if c.MaxQueueWait <= 0 {
		c.MaxQueueWait = 5 * time.Second
	}
	switch {
	case c.PlanCacheSize == 0:
		c.PlanCacheSize = 256
	case c.PlanCacheSize < 0:
		// Caching disabled entirely: zero both bounds so newPlanCache
		// returns nil.
		c.PlanCacheSize = 0
		c.PlanCacheBytes = -1
	}
	switch {
	case c.PlanCacheBytes == 0:
		c.PlanCacheBytes = 256 << 20
	case c.PlanCacheBytes < 0:
		c.PlanCacheBytes = 0 // entry bound only
	}
	if c.MaxGraphShare == 0 {
		c.MaxGraphShare = 0.5
	}
	if c.DefaultTimeLimit <= 0 {
		c.DefaultTimeLimit = 5 * time.Minute
	}
	if c.SlowQueryLog != nil && c.SlowQueryThreshold <= 0 {
		c.SlowQueryThreshold = time.Second
	}
	return c
}

// Request is one matching query against a registered graph.
type Request struct {
	// Graph names the registered data graph.
	Graph string
	// Query is the query graph (connected, non-empty).
	Query *graph.Graph
	// Algorithm picks a preset; Custom overrides it with an explicit
	// component configuration.
	Algorithm core.Algorithm
	Custom    *core.Config
	// MaxEmbeddings, TimeLimit and Parallel carry the meanings of
	// core.Limits. TimeLimit 0 inherits the service default; Parallel is
	// also the request's admission weight. A plan builds on the
	// request's own goroutine whatever Parallel says.
	MaxEmbeddings uint64
	TimeLimit     time.Duration
	Parallel      int
	// OnRun optionally receives every embedding, a leaf run at a time;
	// OnMatch is the per-embedding form of the same sink, kept for the
	// callers that construct it (see core.Limits for both contracts;
	// setting both is core.ErrTwoSinks). Stream sets OnRun from its sink
	// argument.
	OnRun   func(mapping []uint32, u graph.Vertex, vs []uint32) (taken int)
	OnMatch func(mapping []uint32) bool
	// NoCache bypasses the plan cache for this request — preprocessing
	// always runs fresh and the plan is not retained. Benchmarks use it
	// to measure the cold path.
	NoCache bool
	// Profile requests EXPLAIN/ANALYZE: the per-filter-stage reduction
	// and per-depth enumeration heat attached to Result.Explain. A
	// per-request limit, not part of the plan identity — profiled and
	// unprofiled requests share cached plans. An engine plan (Glasgow,
	// VF2, Ullmann) has totals and no heat.
	Profile bool
}

// Response pairs the matching result with serving-side facts.
type Response struct {
	Result *core.Result
	// CacheHit reports that preprocessing was skipped because a cached
	// plan served the request. The Result's preprocessing times are zero
	// in that case — the hit is exactly that saving.
	CacheHit bool
	// QueueWait is how long admission control held the request.
	QueueWait time.Duration
	// trail is the request's value record, which Trace builds the span
	// tree from.
	trail trail
}

// Trace returns the request's span tree — the request root with its
// admission and match children, the match span of a batch item — and
// keeps it on Result.Trace. The serving path records a request's clocks
// and outcomes as values; the tree is built on the first call, so a
// request nobody traces, explains or keeps never builds one.
func (r *Response) Trace() *obs.Span {
	if r.Result.Trace == nil {
		t := &r.trail
		r.Result.Trace = obs.NewSpan("request", t.began, t.latency).
			SetAttr("graph", t.w.graph).
			SetAttr("algo", t.w.algo).
			AddChild(obs.NewSpan("admission", t.began, r.QueueWait)).
			AddChild(t.matchSpan(r.Result))
	}
	return r.Result.Trace
}

// Service is the long-lived matching layer: registry + plan cache +
// admission control + metrics. Safe for concurrent use.
type Service struct {
	cfg     Config
	reg     registry
	cache   *planCache
	sem     *semaphore
	builds  buildGroup
	metrics *serviceMetrics
	slowLog *slowQueryLogger
	flights *flight.Recorder
	start   time.Time
	closed  atomic.Bool
}

// New builds a Service; zero-value Config fields get defaults.
func New(cfg Config) *Service {
	cfg = cfg.withDefaults()
	s := &Service{
		cfg:     cfg,
		cache:   newPlanCache(cfg.PlanCacheSize, cfg.PlanCacheBytes),
		sem:     newSemaphore(int64(cfg.MaxInFlight), cfg.MaxGraphShare),
		flights: flight.NewRecorder(0, 0),
		start:   time.Now(),
	}
	s.metrics = newServiceMetrics(s)
	if s.cache != nil {
		// The cache's accounting becomes the registered families.
		s.cache.hits = s.metrics.planCacheHits
		s.cache.misses = s.metrics.planCacheMisses
		s.cache.evictions = s.metrics.planCacheEvictions
		s.cache.purged = s.metrics.planCachePurged
		// Stale-insert fencing reads the live registry generation (no
		// per-name floor state — see planCache.liveGen).
		s.cache.liveGen = func(name string) (uint64, bool) {
			e, err := s.reg.get(name)
			if err != nil {
				return 0, false
			}
			return e.gen, true
		}
	}
	if cfg.SlowQueryLog != nil {
		s.slowLog = &slowQueryLogger{w: cfg.SlowQueryLog, threshold: cfg.SlowQueryThreshold}
		// The slow-query log is a subscriber of the flight recorder, not
		// a separate instrumentation path: the serving path decides on
		// completion whether the request crossed the threshold and
		// attaches the prepared record as the flight's payload; the
		// subscriber does the serialized write.
		s.flights.Subscribe(func(rec *flight.Record) {
			if sq, ok := rec.Payload.(slowQueryRecord); ok {
				s.slowLog.log(sq)
			}
		})
	}
	return s
}

// Flights exposes the always-on flight recorder: the live in-flight
// registry plus the latency-bucketed retention of completed request
// spans. smatchd serves it on /debug/tracez and /debug/requests.
func (s *Service) Flights() *flight.Recorder { return s.flights }

// Metrics exposes the service's metric registry — smatchd serves it on
// /metrics in the Prometheus text format.
func (s *Service) Metrics() *obs.Registry { return s.metrics.reg }

// Close marks the service closed; subsequent Submits fail with
// ErrClosed. In-flight requests finish normally.
func (s *Service) Close() error {
	s.closed.Store(true)
	return nil
}

// RegisterGraph adds (or, with replace, hot-swaps) a named data graph.
// Replacement bumps the generation, so cached plans against the old
// version can never serve new requests; their entries are purged.
func (s *Service) RegisterGraph(name string, g *graph.Graph, replace bool) (GraphInfo, error) {
	info, err := s.reg.register(name, g, replace, time.Now())
	if err != nil {
		return GraphInfo{}, err
	}
	if replace && s.cache != nil {
		s.cache.purgeGraph(name, info.Generation)
	}
	return info, nil
}

// UnregisterGraph removes a named graph and purges its cached plans,
// returning the removed entry's generation (the durable store records
// it in its WAL so replay stays idempotent).
func (s *Service) UnregisterGraph(name string) (uint64, error) {
	gen, err := s.reg.unregister(name)
	if err != nil {
		return 0, err
	}
	if s.cache != nil {
		s.cache.purgeGraph(name, gen+1)
	}
	return gen, nil
}

// RestoreGraph installs a graph recovered from the durable store under
// its original generation, advancing the generation counter past it.
// Plan-cache keys embed the generation, so restored graphs reuse the
// liveGen fencing unchanged; there is nothing to purge because a fresh
// service's cache is empty.
func (s *Service) RestoreGraph(name string, g *graph.Graph, gen uint64, at time.Time) (GraphInfo, error) {
	return s.reg.restore(name, g, gen, at)
}

// SetGenerationFloor raises the registry's generation counter to at
// least gen. Recovery calls it with the durable high-water mark so new
// registrations are strictly monotonic across restarts.
func (s *Service) SetGenerationFloor(gen uint64) {
	s.reg.advanceGeneration(gen)
}

// Graphs lists the registered graphs, name-sorted.
func (s *Service) Graphs() []GraphInfo { return s.reg.list() }

// Stats snapshots the full serving state. The workload counters are
// read back from the metric registry, so this JSON view and /metrics
// always agree.
func (s *Service) Stats() Stats {
	st := Stats{
		Uptime:    time.Since(s.start),
		Graphs:    s.reg.list(),
		Workloads: s.metrics.snapshot(),
		Kernels:   s.metrics.kernelSnapshot(),
		Batches: BatchStats{
			Batches: s.metrics.batches.Value(),
			Items:   s.metrics.batchItems.Value(),
			Groups:  s.metrics.batchGroups.Value(),
			Deduped: s.metrics.batchDeduped.Value(),
		},
	}
	if s.cache != nil {
		st.Cache = s.cache.stats()
	}
	st.Admission.Capacity, st.Admission.InUse, st.Admission.Queued = s.sem.load()
	st.Inflight = s.flights.InflightCount()
	st.DepthSamples = s.metrics.depthNodes.Count()
	return st
}

// algoName labels a request's workload for stats.
func (r *Request) algoName() string {
	if r.Custom != nil {
		return "custom"
	}
	return r.Algorithm.String()
}

// resolveConfig materializes the request's component configuration:
// the algorithm preset, or the explicit Custom override.
func (r *Request) resolveConfig(g *graph.Graph) core.Config {
	if r.Custom != nil {
		return *r.Custom
	}
	return core.PresetConfig(r.Algorithm, r.Query, g)
}

// The request spine: resolve, admit, plan, run — written once here.
// Submit is the four in a row, a batch group shares one admit and one
// plan among its items, Explain stops after plan.

// target is what resolve produces: the registered graph a request runs
// against, its component configuration and its workload label. The
// items of a batch group share one.
type target struct {
	entry *graphEntry
	cfg   core.Config
	w     *workload // the (graph, algo) metrics children
	// races says the target's plans may race their orders
	// (core.RaceOrders): the Optimized preset's. A Custom tuple or a
	// paper preset asks for its order, so its plans never race.
	races bool
}

// resolve turns a request into its target, or the typed error that
// refuses it (strict validation, not the zero-result tolerance of the
// library-level Match). The target names the graph as soon as the
// registry knew it — also beside a validation error — so the caller can
// put the refusal on the flight recorder under that graph.
func (s *Service) resolve(req *Request) (target, error) {
	if s.closed.Load() {
		return target{}, ErrClosed
	}
	if req.Query == nil {
		return target{}, ErrNilQuery
	}
	entry, err := s.reg.get(req.Graph)
	if err != nil {
		return target{}, err
	}
	t := target{entry: entry, w: entry.workload(s.metrics, req)}
	if err := core.Validate(req.Query, entry.g); err != nil {
		s.metrics.recordError(t.w, 1)
		return t, err
	}
	t.cfg = req.resolveConfig(entry.g)
	t.races = req.Custom == nil && req.Algorithm == core.Optimized
	// A tuple the engine cannot run is refused here, before the plan
	// cache is asked: no lookup, no build, nothing cached.
	if err := t.cfg.Check(req.Query.NumVertices()); err != nil {
		s.metrics.recordError(t.w, 1)
		return t, err
	}
	return t, nil
}

// admit holds the enumeration budget before any work happens: one
// grant for a request asking for parallel workers, or for the n items
// of a batch group whose heaviest asks for that many. The caller
// releases the returned weight; began is when the wait started.
func (s *Service) admit(ctx context.Context, t *target, began time.Time, parallel, n int) (int64, time.Duration, error) {
	weight := s.sem.clampWeight(int64(parallel))
	if err := s.sem.acquire(ctx, t.entry.name, weight, s.cfg.MaxQueueWait, s.cfg.MaxQueue); err != nil {
		s.metrics.recordRejected(t.w, n)
		return 0, 0, err
	}
	queueWait := time.Since(began)
	s.metrics.admissionWait.Observe(queueWait.Seconds())
	return weight, queueWait, nil
}

// clampTo holds the request to what admission granted. The admitted
// weight IS the request's goroutine budget, so an oversized ?parallel=
// cannot hold MaxInFlight units yet spawn an engine per root candidate.
// Entry points call it on their private copy of the request, never on a
// caller's.
func (r *Request) clampTo(weight int64) {
	if r.Parallel > int(weight) {
		r.Parallel = int(weight)
	}
}

// planned is the plan step's outcome: the plan, how it arrived, when
// the step started — the "match" span's origin — and how long the plan
// took to arrive.
type planned struct {
	plan    *core.Plan
	src     planSource
	start   time.Time
	arrived time.Duration
}

// plan obtains the preprocessing plan an admitted request — or the n
// items of a batch group — enumerates over; race lets a cache hit run
// the plan's order race (planFor). A plan builds on the calling
// goroutine, so a panic in any preprocessing layer ends here, as
// ErrInternal against all n.
func (s *Service) plan(ctx context.Context, t *target, req *Request, n int, race bool) (p planned, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = s.recovered(t, n, r)
		}
	}()
	p = planned{start: time.Now()}
	p.plan, p.src, err = s.planFor(ctx, t, req, race)
	if err != nil {
		// A preprocessing failure is a property of the (query, config)
		// every item sharing the plan has; each would fail identically.
		s.metrics.recordError(t.w, n)
		return p, err
	}
	p.arrived = time.Since(p.start)
	return p, nil
}

// racesOrders reports whether a cache hit for req may run the plan's
// order race: a sequential count — no sink — against a target whose
// plans race. A parallel request's node counts depend on the schedule,
// so it neither races nor makes a plan race. Nor does a request with a
// sink: the race scores orders by the nodes of a count, which counts
// the tail a stream enumerates. Racing on stream-embeddings' first
// streams read 1.035× cpu_ms_per_op and 1.06× rss_peak_mb (2 and 1 of
// 10 pairs better), and its winners streamed 1.04× slower in process.
func (t *target) racesOrders(req *Request) bool {
	return t.races && req.Parallel <= 1 && !req.hasSink()
}

// hasSink reports whether the request delivers its embeddings
// somewhere, in either form. Such a request is executed on its own: its
// result cannot stand in for another item's, nor another's for it.
func (r *Request) hasSink() bool { return r.OnRun != nil || r.OnMatch != nil }

// run enumerates one admitted request over its plan and accounts for
// the outcome; began is the origin of the latency it records (the
// request's arrival, or its batch's). It is the one place a request
// becomes a core.Limits, run by core.RunContext: the ctx deadline is
// folded into the time limit there, after the queue wait and the plan
// acquisition — both consume the caller's budget — and cancelling ctx
// stops the search cooperatively, through cancel when the caller's
// flight watches ctx and through RunContext's own watch when cancel is
// nil. A ctx deadline counts as a timeout, every other failure as an
// error.
//
// The Response's trail records the run for its "match" span, which
// distinguishes the three ways a plan can arrive. A fresh build
// attaches the plan's full "preprocess" span; a cache hit attaches a
// "plan" span covering only the lookup, annotated with the
// preprocessing cost the hit saved; a singleflight follower attaches a
// "plan" span covering its wait on the leader's build. The latter two
// report CacheHit — the request did not pay preprocessing — and keep
// the Result's preprocessing times zero for the same reason.
func (s *Service) run(ctx context.Context, t *target, req *Request, p planned,
	began time.Time, queueWait time.Duration, cancel *atomic.Bool) (_ *Response, err error) {

	// A panic on this goroutine — in enumeration, or in the caller's sink
	// on a sequential run — is the request's error, not its connection's
	// (the parallel workers recover their own: core.ErrInternal). Either
	// way the plan it ran on leaves the cache, so the next request for
	// the key rebuilds it instead of re-entering the same state.
	defer func() {
		if r := recover(); r != nil {
			err = s.recovered(t, 1, r)
		}
		if errors.Is(err, core.ErrInternal) {
			s.forgetPlan(t, req, p.plan)
		}
	}()
	timeLimit := req.TimeLimit
	if timeLimit <= 0 {
		timeLimit = s.cfg.DefaultTimeLimit
	}
	limits := core.Limits{
		MaxEmbeddings: req.MaxEmbeddings,
		TimeLimit:     timeLimit,
		Cancel:        cancel,
		OnRun:         req.OnRun,
		OnMatch:       req.OnMatch,
		Parallel:      req.Parallel,
		Profile:       req.Profile,
	}
	cacheHit := p.src != planBuilt
	res, err := core.RunContext(ctx, limits, func(limits core.Limits) (*core.Result, error) {
		if cacheHit {
			return core.MatchPlan(p.plan, limits)
		}
		return core.MatchFresh(p.plan, limits, p.start)
	})
	if err != nil {
		if errors.Is(err, context.DeadlineExceeded) {
			s.metrics.recordTimeout(t.w)
		} else {
			s.metrics.recordError(t.w, 1)
		}
		return nil, err
	}
	resp := &Response{Result: res, CacheHit: cacheHit, QueueWait: queueWait}
	resp.trail = trail{w: t.w, p: p, match: time.Since(p.start), began: began}

	s.metrics.recordSuccess(t.w, res.Embeddings, cacheHit,
		res.TimedOut, res.LimitHit, time.Since(began))
	s.metrics.recordKernels(res.Kernels)
	s.metrics.recordSplit(res.Split)
	s.metrics.observeDepthNodes(res.Profile)
	s.metrics.observePhases(res.FilterTime, res.BuildTime, res.OrderTime,
		res.EnumTime, !cacheHit)
	return resp, nil
}

// trail is one request's value record: the spine's steps write their
// clocks and the plan's arrival here as they pass, and the span tree is
// built from it — by Response.Trace — only for a request that asks for
// it, that the flight recorder keeps, or that the slow-query log
// writes.
type trail struct {
	w *workload
	p planned
	// match is the run's wall time from the plan step's start.
	match time.Duration
	// began and latency are the request's arrival and its end-to-end
	// latency (Submit's).
	began   time.Time
	latency time.Duration
}

// matchSpan is the run's "match" span: how the plan arrived and the
// enumeration over it, which started when the plan arrived.
func (t *trail) matchSpan(res *core.Result) *obs.Span {
	p := t.p
	enumStart := p.start.Add(p.arrived)
	sp := obs.NewSpan("match", p.start, t.match)
	if p.src == planBuilt {
		sp.AddChild(p.plan.Span)
	} else {
		sp.AddChild(planSpan(p.src, p.plan, p.start, p.arrived))
	}
	if p.plan.Empty {
		return sp.AddChild(obs.NewSpan("enumerate", enumStart, 0).SetAttr("empty", true))
	}
	return sp.AddChild(core.EnumerateSpan(enumStart, res))
}

// Submit runs one request end to end — the spine for a group of one,
// as a direct call chain — and then prepares its slow-query record and
// finishes its flight, which builds the request's span tree only if the
// recorder keeps it.
func (s *Service) Submit(ctx context.Context, req Request) (resp *Response, retErr error) {
	t, err := s.resolve(&req)
	if t.entry == nil {
		return nil, err
	}
	// Every request past graph resolution is on the flight recorder,
	// which also watches ctx for the search. The success path finishes
	// the flight explicitly with its trail and slow-log payload; Finish
	// is idempotent, so the deferred call only catches the error
	// returns.
	fl := s.flights.StartWatch(ctx, t.entry.name, t.w.algo)
	defer func() { fl.Finish(nil, retErr, nil) }()
	if err != nil {
		return nil, err
	}

	fl.SetPhase("admission")
	began := time.Now()
	weight, queueWait, err := s.admit(ctx, &t, began, req.Parallel, 1)
	if err != nil {
		return nil, err
	}
	defer s.sem.release(weight)
	req.clampTo(weight)

	fl.SetPhase("plan")
	p, err := s.plan(ctx, &t, &req, 1, t.racesOrders(&req))
	if err != nil {
		return nil, err
	}
	fl.SetPhase("enumerate")
	if resp, err = s.run(ctx, &t, &req, p, began, queueWait, fl.Cancelled()); err != nil {
		return nil, err
	}
	res := resp.Result
	latency := time.Since(began)
	resp.trail.latency = latency

	// Slow path: prepare the log record here (the serving path owns the
	// threshold decision) and hand it to the recorder as the flight's
	// payload — the subscriber registered in New does the write.
	var payload any
	if s.slowLog != nil && latency >= s.slowLog.threshold {
		s.metrics.slowQueries.Inc()
		payload = slowQueryRecord{
			Time:        time.Now().UTC().Format(time.RFC3339Nano),
			Graph:       t.entry.name,
			Algorithm:   t.w.algo,
			QueryFP:     fingerprintHex(graph.FingerprintOf(req.Query)),
			QueryVerts:  req.Query.NumVertices(),
			QueryEdges:  req.Query.NumEdges(),
			Parallel:    req.Parallel,
			MaxEmb:      req.MaxEmbeddings,
			CacheHit:    resp.CacheHit,
			Embeddings:  res.Embeddings,
			Nodes:       res.Nodes,
			TimedOut:    res.TimedOut,
			LimitHit:    res.LimitHit,
			LatencyNS:   latency.Nanoseconds(),
			QueueWaitNS: queueWait.Nanoseconds(),
			Trace:       resp.Trace(),
		}
	}
	fl.Finish(resp, nil, payload)
	return resp, nil
}

// planSource says how a request's plan arrived: built fresh by this
// request (it paid preprocessing), found in the cache, or shared from
// another request's in-flight singleflight build.
type planSource int

const (
	planBuilt planSource = iota
	planHit
	planShared
)

// planSpan is the "plan" trace child for the two no-preprocessing
// arrivals, annotated with the cost the reuse saved.
func planSpan(src planSource, plan *core.Plan, start time.Time, d time.Duration) *obs.Span {
	sp := obs.NewSpan("plan", start, d).
		SetAttr("saved_ns", plan.PreprocessTime().Nanoseconds())
	if src == planShared {
		return sp.SetAttr("shared", true)
	}
	return sp.SetAttr("cached", true)
}

// planFor obtains the preprocessing plan for (graph entry, query,
// config): from the cache when enabled, else by building — with
// concurrent cold-key builds collapsed into one by the singleflight
// group. The leader inserts into the cache inside the flight, and a
// request that leads a flight looks in the cache once more before it
// builds: its own lookup may have missed just before an earlier
// leader's insert and found that flight already gone. So a request
// always ends with the flight or the finished plan — one build per key,
// no matter how many requests dogpile it.
//
// With race set, a hit is where a cached plan races its orders: the
// first such hit on a plan — the race trigger, a sequential count (see
// target.racesOrders), so the cold path and plans that serve once never
// pay for one — counts it under each static order at the request's
// limit, and the winner takes the plan's place in the cache
// (planCache.swap) and serves the request. Every later hit finds the
// plan raced and pays one atomic load.
func (s *Service) planFor(ctx context.Context, t *target, req *Request, race bool) (*core.Plan, planSource, error) {
	entry, q := t.entry, req.Query
	if s.cache == nil || req.NoCache {
		s.metrics.planBuilds.Inc()
		plan, err := core.Preprocess(q, entry.g, t.cfg, 1)
		if err != nil {
			return nil, planBuilt, fmt.Errorf("preprocess %q: %w", entry.name, err)
		}
		return plan, planBuilt, nil
	}
	key := planKeyOf(t, q)
	if plan, ok := s.cache.get(key); ok {
		if race {
			if won := core.RaceOrders(plan, req.MaxEmbeddings); won != nil {
				s.cache.swap(key, plan, won)
				s.metrics.recordRace(won.Race)
				plan = won
			}
		}
		return plan, planHit, nil
	}
	lateHit := false
	plan, leader, err := s.builds.do(ctx, key, func() (*core.Plan, error) {
		if p, ok := s.cache.recheck(key); ok {
			lateHit = true
			return p, nil
		}
		s.metrics.planBuilds.Inc()
		p, err := core.Preprocess(q, entry.g, t.cfg, 1)
		if err != nil {
			return nil, fmt.Errorf("preprocess %q: %w", entry.name, err)
		}
		return s.cache.add(key, p), nil
	})
	if err != nil {
		return nil, planBuilt, err
	}
	switch {
	case !leader:
		s.metrics.planBuildWaits.Inc()
		return plan, planShared, nil
	case lateHit:
		return plan, planHit, nil
	default:
		return plan, planBuilt, nil
	}
}

// planKeyOf is the plan-cache key of query q against its target.
func planKeyOf(t *target, q *graph.Graph) planKey {
	return planKey{
		graph:   t.entry.name,
		gen:     t.entry.gen,
		queryFP: graph.FingerprintOf(q),
		cfgHash: configHash(t.cfg),
		races:   t.races,
	}
}

// forgetPlan removes plan from the cache if it is still resident under
// the request's key: a run on it failed with ErrInternal.
func (s *Service) forgetPlan(t *target, req *Request, plan *core.Plan) {
	if s.cache == nil || req.NoCache {
		return
	}
	s.cache.remove(planKeyOf(t, req.Query), plan)
}

// recovered is the ErrInternal error a panic r recovered in a spine step
// becomes, counted against the step's n requests. Call it in the
// deferred function that recovered r, so the stack — which the flight
// recorder's error ring keeps with the error — is the panicking
// goroutine's.
func (s *Service) recovered(t *target, n int, r any) error {
	s.metrics.recordError(t.w, n)
	return fmt.Errorf("service: %w: %v\n%s", core.ErrInternal, r, debug.Stack())
}

// Stream is Submit with a mandatory sink, in the run form. The sink runs
// synchronously inside enumeration — a slow consumer therefore applies
// natural backpressure to the search instead of buffering unboundedly —
// and taking less than a whole run stops the search early. See
// core.Limits.OnRun for the contract and the slice-reuse rules.
func (s *Service) Stream(ctx context.Context, req Request, sink func(mapping []uint32, u graph.Vertex, vs []uint32) (taken int)) (*Response, error) {
	if sink == nil {
		return nil, ErrNilCallback
	}
	req.OnRun = sink
	return s.Submit(ctx, req)
}
