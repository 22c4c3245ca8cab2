package service

import (
	"context"
	"sync"
	"time"

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
	target
	items []int // indices into the batch's item slice
}

// batchGroupKey distinguishes groups: the plan identity plus the
// cache-bypass bit (NoCache items must not satisfy — or be satisfied
// by — cached plans).
type batchGroupKey struct {
	planKey
	noCache bool
}

// execKey identifies executions whose outcome is identical within one
// group: the same limits and parallelism asked for, after the clamp to
// the group's grant. Items in a group sharing an execKey and observing
// no sink (in either form) are deduplicated — the query runs once and
// the result fans out to every duplicate (first cut of multi-query
// optimization: identical queries are the degenerate common
// substructure).
type execKey struct {
	maxEmbeddings uint64
	timeLimit     time.Duration
	parallel      int
	// profile keeps profiled and unprofiled items apart: a fan-out of an
	// unprofiled run has no Explain to offer a profiled duplicate.
	profile bool
}

// SubmitBatch runs a set of requests as one batch: items are grouped by
// (graph, query fingerprint, config), each group passes admission once
// and resolves its plan once, and duplicate sinkless items within a
// group execute once with the result fanned out. Groups run
// concurrently; items within a group run sequentially under the group's
// admission grant. The returned slice always has len(items) entries in
// item order. The batch-level error is non-nil only when the whole call
// is invalid (closed service, empty batch); everything else is reported
// per item.
//
// Equivalence contract: for any item, the embeddings delivered through
// its sink and the counts on its Response are identical to what a
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

	// Phase 1: resolve and validate every item, grouping the valid ones.
	// Invalid items fail alone, right here, without touching admission.
	groups := make(map[batchGroupKey]*batchGroup)
	var order []*batchGroup
	for i := range items {
		results[i].Index = i
		req := &items[i]
		t, err := s.resolve(req)
		if err != nil {
			results[i].Err = err
			continue
		}
		gk := batchGroupKey{planKey: planKeyOf(&t, req.Query), noCache: req.NoCache}
		grp, ok := groups[gk]
		if !ok {
			grp = &batchGroup{target: t}
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

// runBatchGroup executes one group: the spine's admit and plan steps
// once, then run per item in index order, with the dedup map around it. It returns the group's span (admission + per-item match
// children), or nil if the group was refused admission.
func (s *Service) runBatchGroup(ctx context.Context, began time.Time, grp *batchGroup, items []Request, results []BatchResult) *obs.Span {
	failAll := func(err error) {
		for _, idx := range grp.items {
			results[idx].Err = err
		}
	}
	// One admission grant sized for the heaviest item.
	parallel := 1
	for _, idx := range grp.items {
		parallel = max(parallel, items[idx].Parallel)
	}
	admStart := time.Now()
	weight, queueWait, err := s.admit(ctx, &grp.target, admStart, parallel, len(grp.items))
	if err != nil {
		failAll(err)
		return nil
	}
	defer s.sem.release(weight)
	// Each item runs as a private copy held to the group's grant: the
	// clamp never reaches the caller's slice.
	item := func(idx int) Request {
		req := items[idx]
		req.clampTo(weight)
		return req
	}

	span := obs.NewSpan("group", admStart, 0).
		SetAttr("graph", grp.entry.name).
		SetAttr("algo", grp.w.algo).
		SetAttr("items", len(grp.items))
	span.AddChild(obs.NewSpan("admission", admStart, queueWait))

	// One plan acquisition for the whole group.
	first := item(grp.items[0])
	p, err := s.plan(ctx, &grp.target, &first, len(grp.items), grp.target.racesOrders(&first))
	if err != nil {
		failAll(err)
		return span
	}

	// Execute the items. Within the group, identical sinkless
	// executions run once and fan out.
	dedup := make(map[execKey]*Response)
	for n, idx := range grp.items {
		req := item(idx)
		ek := execKey{
			maxEmbeddings: req.MaxEmbeddings,
			timeLimit:     req.TimeLimit,
			parallel:      req.Parallel,
			profile:       req.Profile,
		}
		if prior, ok := dedup[ek]; ok && !req.hasSink() {
			// Fan-out: an identical item already ran in this group. The
			// Result is shared (it is read-only to callers, like a
			// cached plan) and its span is already the group's child;
			// the Response is private so per-item serving facts stay
			// per-item.
			s.metrics.batchDeduped.Inc()
			s.metrics.recordSuccess(grp.w, prior.Result.Embeddings, true,
				prior.Result.TimedOut, prior.Result.LimitHit, time.Since(began))
			results[idx].Resp = &Response{Result: prior.Result, CacheHit: true, QueueWait: queueWait}
			continue
		}
		if n > 0 {
			// The first item of a freshly built plan is the one that
			// "paid" preprocessing and waited for the plan (matching what
			// n sequential Submits would report: one miss, then hits).
			p.start, p.arrived = time.Now(), 0
			if p.src == planBuilt {
				p.src = planHit
			}
		}
		resp, err := s.run(ctx, &grp.target, &req, p, began, queueWait, nil)
		if err != nil {
			results[idx].Err = err
			continue
		}
		results[idx].Resp = resp
		if !req.hasSink() {
			dedup[ek] = resp
		}
		// The batch keeps every item's match span: the group span, and
		// the batch's flight, are built from them.
		resp.Result.Trace = resp.trail.matchSpan(resp.Result)
		span.AddChild(resp.Result.Trace.SetAttr("index", idx))
	}
	span.End()
	return span
}
