package service

import (
	"context"
	"time"

	"subgraphmatching/internal/core"
)

// ExplainResponse is the outcome of an EXPLAIN dry run: the plan-level
// profile (filter-stage reduction, matching order with cardinalities)
// without any enumeration having run.
type ExplainResponse struct {
	// Profile is the plan breakdown; Analyzed is false and no heat table
	// is present — use Submit with Request.Profile for EXPLAIN ANALYZE.
	Profile *core.Profile `json:"profile"`
	// CacheHit reports the plan came from the cache (or an in-flight
	// build) rather than being preprocessed for this call.
	CacheHit bool `json:"cache_hit"`
	// QueueWait is how long admission control held the call.
	QueueWait time.Duration `json:"queue_wait_ns"`
}

// Explain is EXPLAIN without ANALYZE — the spine minus enumeration: it
// resolves the request's plan, from the cache when possible,
// preprocessing otherwise, and returns what the optimizer decided
// (per-stage candidate reduction, matching order, per-vertex
// cardinalities). A dry run holds one admission unit: preprocessing is
// bounded work, and the plan it builds is cached for the real query to
// reuse.
func (s *Service) Explain(ctx context.Context, req Request) (_ *ExplainResponse, retErr error) {
	t, err := s.resolve(&req)
	if t.entry == nil {
		return nil, err
	}
	fl := s.flights.Start(t.entry.name, t.algo+" (explain)")
	defer func() { fl.Finish(nil, retErr, nil) }()
	if err != nil {
		return nil, err
	}
	if t.cfg.External() {
		return nil, ErrNoExplain
	}

	fl.SetPhase("admission")
	weight, queueWait, err := s.admit(ctx, &t, time.Now(), 1, 1)
	if err != nil {
		return nil, err
	}
	defer s.sem.release(weight)
	req.clampTo(weight, s.cfg.MaxInFlight)

	fl.SetPhase("plan")
	p, err := s.plan(ctx, &t, &req, 1)
	if err != nil {
		return nil, err
	}
	fl.Finish(p.plan.Span, nil, nil)
	return &ExplainResponse{
		Profile:   core.ExplainPlan(p.plan),
		CacheHit:  p.src != planBuilt,
		QueueWait: queueWait,
	}, nil
}
