package service

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"subgraphmatching/internal/core"
	"subgraphmatching/internal/graph"
	"subgraphmatching/internal/obs"
)

// BatchResult is one batch item's outcome, carrying its position in the
// submitted slice (results come back in item order, Index == position).
// Exactly one of Resp and Err is set — per-item status isolation: one
// invalid or overloaded item never fails its neighbors.
type BatchResult struct {
	Index int
	Resp  *Response
	Err   error
}

// batchGroup is one (graph generation, query fingerprint, config,
// cache-bypass) equivalence class within a batch. The whole group takes
// ONE admission grant (weighted by its heaviest item) and ONE plan
// lookup/build; its items then enumerate sequentially under that grant.
// This is where batching amortizes the per-request overhead that
// dominates tiny hot queries.
type batchGroup struct {
	key     planKey
	noCache bool
	entry   *graphEntry
	cfg     core.Config
	algo    string
	items   []int // indices into the batch's item slice
}

// batchGroupKey distinguishes groups: the plan identity plus the
// cache-bypass bit (NoCache items must not satisfy — or be satisfied
// by — cached plans).
type batchGroupKey struct {
	planKey
	noCache bool
}

// execKey identifies executions whose outcome is identical within one
// group: same limits, same parallelism. Items in a group sharing an
// execKey and observing no per-embedding callback are deduplicated —
// the query runs once and the result fans out to every duplicate
// (first cut of multi-query optimization: identical queries are the
// degenerate common substructure).
type execKey struct {
	maxEmbeddings uint64
	timeLimit     time.Duration
	parallel      int
	workers       int
	// profile keeps profiled and unprofiled items apart: a fan-out of an
	// unprofiled run has no Explain to offer a profiled duplicate.
	profile bool
}

// SubmitBatch runs a set of requests as one batch: items are grouped by
// (graph, query fingerprint, config), each group passes admission once
// and resolves its plan once, and duplicate no-callback items within a
// group execute once with the result fanned out. Groups run
// concurrently; items within a group run sequentially under the group's
// admission grant. The returned slice always has len(items) entries in
// item order. The batch-level error is non-nil only when the whole call
// is invalid (closed service, empty batch); everything else is reported
// per item.
//
// Equivalence contract: for any item, the embeddings delivered through
// its OnMatch and the counts on its Response are identical to what a
// lone Submit of the same request would produce — batching changes
// admission and plan traffic, never results.
func (s *Service) SubmitBatch(ctx context.Context, items []Request) ([]BatchResult, error) {
	if s.closed.Load() {
		return nil, ErrClosed
	}
	if len(items) == 0 {
		return nil, ErrEmptyBatch
	}
	began := time.Now()
	// The batch is one flight: the recorder shows it in flight while its
	// groups run, and its root span (all groups) enters retention.
	fl := s.flights.Start("(batch)", "batch")
	fl.SetPhase("groups")
	results := make([]BatchResult, len(items))
	for i := range results {
		results[i].Index = i
	}

	// Phase 1: resolve and validate every item, grouping the valid ones.
	// Invalid items fail alone, right here, without touching admission.
	groups := make(map[batchGroupKey]*batchGroup)
	var order []*batchGroup
	for i := range items {
		req := &items[i]
		if req.Query == nil {
			results[i].Err = ErrNilQuery
			continue
		}
		entry, err := s.reg.get(req.Graph)
		if err != nil {
			results[i].Err = err
			continue
		}
		algo := req.algoName()
		if err := core.Validate(req.Query, entry.g); err != nil {
			s.metrics.recordError(entry.name, algo)
			results[i].Err = err
			continue
		}
		cfg := req.resolveConfig(entry.g)
		gk := batchGroupKey{
			planKey: planKey{
				graph:   entry.name,
				gen:     entry.gen,
				queryFP: graph.FingerprintOf(req.Query),
				cfgHash: configHash(cfg),
			},
			noCache: req.NoCache,
		}
		grp, ok := groups[gk]
		if !ok {
			grp = &batchGroup{key: gk.planKey, noCache: gk.noCache, entry: entry, cfg: cfg, algo: algo}
			groups[gk] = grp
			order = append(order, grp)
		}
		grp.items = append(grp.items, i)
	}

	// Phase 2: run the groups concurrently. Each group's span slot is
	// private to its goroutine; the batch root span is assembled after
	// the barrier.
	groupSpans := make([]*obs.Span, len(order))
	var wg sync.WaitGroup
	for gi, grp := range order {
		wg.Add(1)
		go func(gi int, grp *batchGroup) {
			defer wg.Done()
			groupSpans[gi] = s.runBatchGroup(ctx, began, grp, items, results)
		}(gi, grp)
	}
	wg.Wait()

	latency := time.Since(began)
	s.metrics.batches.Inc()
	s.metrics.batchItems.Add(uint64(len(items)))
	s.metrics.batchGroups.Add(uint64(len(order)))
	s.metrics.batchSize.Observe(float64(len(items)))

	// One request span for the batch; per-item match spans are its
	// children (each item's Response also carries its own span).
	root := obs.NewSpan("request", began, latency).
		SetAttr("batch", true).
		SetAttr("items", len(items)).
		SetAttr("groups", len(order))
	for _, gs := range groupSpans {
		if gs != nil {
			root.AddChild(gs)
		}
	}

	var payload any
	if s.slowLog != nil && latency >= s.slowLog.threshold {
		s.metrics.slowQueries.Inc()
		var embeddings, nodes uint64
		errs := 0
		for i := range results {
			if results[i].Err != nil {
				errs++
			} else if r := results[i].Resp; r != nil {
				embeddings += r.Result.Embeddings
				nodes += r.Result.Nodes
			}
		}
		payload = slowQueryRecord{
			Time:       time.Now().UTC().Format(time.RFC3339Nano),
			Graph:      "(batch)",
			Algorithm:  "batch",
			Batch:      len(items),
			Groups:     len(order),
			ItemErrors: errs,
			Embeddings: embeddings,
			Nodes:      nodes,
			LatencyNS:  latency.Nanoseconds(),
			Trace:      root,
		}
	}
	fl.Finish(root, nil, payload)
	return results, nil
}

// runBatchGroup executes one group: one admission grant, one plan
// acquisition, then the items in index order. It returns the group's
// span (admission + per-item match children), or nil if the group never
// got far enough to trace.
func (s *Service) runBatchGroup(ctx context.Context, began time.Time, grp *batchGroup, items []Request, results []BatchResult) *obs.Span {
	// One admission grant sized for the heaviest item.
	var weight int64 = 1
	for _, idx := range grp.items {
		if w := s.sem.clampWeight(int64(items[idx].Parallel)); w > weight {
			weight = w
		}
	}
	admStart := time.Now()
	if err := s.sem.acquire(ctx, grp.entry.name, weight, s.cfg.MaxQueueWait, s.cfg.MaxQueue); err != nil {
		for _, idx := range grp.items {
			s.metrics.recordRejected(grp.entry.name, grp.algo)
			results[idx].Err = err
		}
		return nil
	}
	defer s.sem.release(weight)
	queueWait := time.Since(admStart)
	s.metrics.admissionWait.Observe(queueWait.Seconds())

	span := obs.NewSpan("group", admStart, 0).
		SetAttr("graph", grp.entry.name).
		SetAttr("algo", grp.algo).
		SetAttr("items", len(grp.items))
	span.AddChild(obs.NewSpan("admission", admStart, queueWait))

	// One plan acquisition for the whole group (pipeline configs only —
	// the external engines have no plan and enumerate from scratch).
	external := grp.cfg.UseGlasgow || grp.cfg.UseVF2 || grp.cfg.UseUllmann
	var (
		plan *core.Plan
		src  planSource
	)
	if !external {
		var err error
		plan, src, err = s.planFor(ctx, grp.entry, items[grp.items[0]].Query, grp.cfg,
			items[grp.items[0]].preprocessWorkers(), grp.noCache)
		if err != nil {
			// A preprocessing failure is a property of the (query, config)
			// the whole group shares; every item would fail identically.
			for _, idx := range grp.items {
				s.metrics.recordError(grp.entry.name, grp.algo)
				results[idx].Err = err
			}
			return span
		}
	}

	// Execute the items. Within the group, identical no-callback
	// executions run once and fan out.
	dedup := make(map[execKey]*Response)
	added := make(map[*core.Result]bool) // dedup fan-outs share a Result — attach its span once
	for n, idx := range grp.items {
		// The first item of a freshly built plan is the one that "paid"
		// preprocessing (matching what n sequential Submits would
		// report: one miss, then hits).
		itemSrc := src
		if n > 0 && itemSrc == planBuilt {
			itemSrc = planHit
		}
		resp, err := s.runBatchItem(ctx, began, grp, plan, itemSrc, weight, queueWait, &items[idx], dedup)
		if err != nil {
			results[idx].Err = err
			continue
		}
		results[idx].Resp = resp
		if resp.Result.Trace != nil && !added[resp.Result] {
			added[resp.Result] = true
			span.AddChild(resp.Result.Trace.SetAttr("index", idx))
		}
	}
	span.End()
	return span
}

// runBatchItem executes one item over the group's already-acquired
// grant and already-resolved plan, mirroring Submit's limit resolution,
// clamping, metrics and ctx-deadline semantics exactly — the
// equivalence grid pins this.
func (s *Service) runBatchItem(ctx context.Context, began time.Time, grp *batchGroup,
	plan *core.Plan, src planSource, weight int64, queueWait time.Duration,
	req *Request, dedup map[execKey]*Response) (*Response, error) {

	// Clamp exactly as Submit does: the admitted weight is the
	// enumeration budget.
	if req.Parallel > int(weight) {
		req.Parallel = int(weight)
	}
	if req.Workers > s.cfg.MaxInFlight {
		req.Workers = s.cfg.MaxInFlight
	}
	timeLimit := req.TimeLimit
	if timeLimit <= 0 {
		timeLimit = s.cfg.DefaultTimeLimit
	}
	deadline, hasDeadline := ctx.Deadline()
	if hasDeadline {
		remain := time.Until(deadline)
		if remain <= 0 {
			s.metrics.recordTimeout(grp.entry.name, grp.algo)
			return nil, context.DeadlineExceeded
		}
		if remain < timeLimit {
			timeLimit = remain
		}
	}

	ek := execKey{
		maxEmbeddings: req.MaxEmbeddings,
		timeLimit:     timeLimit,
		parallel:      req.Parallel,
		workers:       req.Workers,
		profile:       req.Profile,
	}
	if req.OnMatch == nil {
		if prior, ok := dedup[ek]; ok {
			// Fan-out: an identical item already ran in this group. The
			// Result is shared (it is read-only to callers, like a
			// cached plan); the Response is private so per-item serving
			// facts stay per-item.
			s.metrics.batchDeduped.Inc()
			s.metrics.recordSuccess(grp.entry.name, grp.algo, prior.Result.Embeddings, true,
				prior.Result.TimedOut, prior.Result.LimitHit, time.Since(began))
			return &Response{Result: prior.Result, CacheHit: true, QueueWait: queueWait}, nil
		}
	}

	var flag atomic.Bool
	stop := context.AfterFunc(ctx, func() { flag.Store(true) })
	defer stop()
	limits := core.Limits{
		MaxEmbeddings: req.MaxEmbeddings,
		TimeLimit:     timeLimit,
		Cancel:        &flag,
		OnMatch:       req.OnMatch,
		Parallel:      req.Parallel,
		Workers:       req.Workers,
		Profile:       req.Profile,
		Trace:         true,
	}

	start := time.Now()
	var (
		res      *core.Result
		cacheHit bool
		err      error
	)
	if plan == nil {
		// External engine: no plan to share, enumerate from scratch.
		res, err = core.Match(req.Query, grp.entry.g, grp.cfg, limits)
	} else if src == planBuilt {
		res, err = s.matchFresh(plan, limits, start)
	} else {
		res, err = core.MatchPlan(plan, limits)
		if err == nil {
			res.Trace = obs.NewSpan("match", start, time.Since(start)).
				AddChild(planSpan(src, plan, start, 0)).
				AddChild(res.Trace)
		}
		cacheHit = true
	}
	if err != nil {
		s.metrics.recordError(grp.entry.name, grp.algo)
		return nil, err
	}
	cerr := ctx.Err()
	if cerr == nil && hasDeadline && res.TimedOut && !time.Now().Before(deadline) {
		cerr = context.DeadlineExceeded
	}
	if cerr != nil {
		if cerr == context.DeadlineExceeded {
			s.metrics.recordTimeout(grp.entry.name, grp.algo)
		} else {
			s.metrics.recordError(grp.entry.name, grp.algo)
		}
		return nil, cerr
	}

	latency := time.Since(began)
	s.metrics.recordSuccess(grp.entry.name, grp.algo, res.Embeddings, cacheHit,
		res.TimedOut, res.LimitHit, latency)
	s.metrics.recordKernels(res.Kernels)
	s.metrics.recordSplit(res.Split, res.Nodes)
	s.metrics.observeDepthNodes(res.Profile)
	s.metrics.observePhases(res.FilterTime, res.BuildTime, res.OrderTime,
		res.EnumTime, !cacheHit)

	resp := &Response{Result: res, CacheHit: cacheHit, QueueWait: queueWait}
	if req.OnMatch == nil {
		dedup[ek] = resp
	}
	return resp, nil
}
