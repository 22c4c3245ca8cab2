package service

import (
	"context"
	"fmt"
	"sync"

	"subgraphmatching/internal/core"
)

// buildGroup collapses concurrent plan builds for the same cache key
// into one: the first arrival (the leader) runs the build while later
// arrivals block on its completion and share the resulting plan.
// Preprocessing a large graph can take seconds; without this, N
// requests dogpiling a cold key would run N identical builds and keep
// N-1 of the results only long enough to throw them away.
//
// The leader's build function inserts the plan into the cache *before*
// the in-flight entry is removed, and starts by looking in the cache
// itself (planFor): a request whose own lookup missed before that
// insert and that arrives here after the entry's removal leads a new
// flight, finds the plan and builds nothing — the build count for one
// key is exactly one regardless of arrival timing.
type buildGroup struct {
	mu    sync.Mutex
	calls map[planKey]*buildCall
}

type buildCall struct {
	done chan struct{} // closed when the build finishes
	plan *core.Plan
	err  error
}

// do runs fn under the key's flight, or waits for the flight already in
// progress. It reports whether this caller was the leader (ran fn
// itself). Waiting respects ctx; an abandoned wait leaves the flight
// running for its other waiters.
func (g *buildGroup) do(ctx context.Context, k planKey, fn func() (*core.Plan, error)) (*core.Plan, bool, error) {
	g.mu.Lock()
	if g.calls == nil {
		g.calls = make(map[planKey]*buildCall)
	}
	if c, ok := g.calls[k]; ok {
		g.mu.Unlock()
		select {
		case <-c.done:
			return c.plan, false, c.err
		case <-ctx.Done():
			return nil, false, ctx.Err()
		}
	}
	c := &buildCall{done: make(chan struct{})}
	g.calls[k] = c
	g.mu.Unlock()

	// The flight closes however fn ends. A panicking fn fails the
	// waiters with errBuildPanicked and keeps unwinding into the
	// leader's recover; the next request for the key builds afresh.
	returned := false
	defer func() {
		if !returned {
			c.plan, c.err = nil, errBuildPanicked
		}
		g.mu.Lock()
		delete(g.calls, k)
		g.mu.Unlock()
		close(c.done)
	}()
	c.plan, c.err = fn()
	returned = true
	return c.plan, true, c.err
}

// errBuildPanicked is what the waiters on a flight whose build panicked
// get; the leader gets the panic itself.
var errBuildPanicked = fmt.Errorf("service: %w: the plan build this request waited for panicked", core.ErrInternal)
