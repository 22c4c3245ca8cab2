// Package service is the long-lived matching layer behind smatchd: a
// named registry of immutable data graphs, a bounded LRU cache of
// preprocessing plans keyed by query fingerprint, weighted admission
// control over the enumeration workers, and per-workload statistics.
// The package is transport-agnostic — cmd/smatchd puts HTTP in front of
// it, tests drive it directly.
//
// The design follows the paper's decomposition (Sun & Luo, SIGMOD 2020):
// preprocessing (filtering + candidate-space construction + ordering)
// dominates short queries, so a resident service that reuses plans
// across repeated queries skips straight to enumeration — the
// serving-time win the compact-neighborhood-index line of work
// (Nabti & Seba) gets from persistent per-graph structures. Per-request
// deadlines and cooperative cancellation keep adversarial queries
// (Zeng et al.'s deep analysis) from pinning workers.
package service

import (
	"errors"
	"fmt"
)

// Typed service errors. The degenerate-input errors (ErrEmptyQuery and
// friends) come from core.Validate and are not redeclared here; a
// transport maps both families onto status codes with errors.Is.
var (
	// ErrUnknownGraph reports a request naming a graph the registry does
	// not hold.
	ErrUnknownGraph = errors.New("service: unknown graph")
	// ErrDuplicateGraph reports RegisterGraph on a name already
	// registered without the replace flag.
	ErrDuplicateGraph = errors.New("service: graph already registered")
	// ErrInvalidGraphName reports an empty or oversized graph name.
	ErrInvalidGraphName = errors.New("service: invalid graph name")
	// ErrOverloaded is the base overload error: admission control
	// rejected the request instead of queueing it unboundedly. The two
	// concrete variants below wrap it, so errors.Is(err, ErrOverloaded)
	// catches both.
	ErrOverloaded = errors.New("service: overloaded")
	// ErrQueueFull reports that the admission wait queue was already at
	// its configured depth — the request was rejected immediately.
	ErrQueueFull = fmt.Errorf("admission queue full: %w", ErrOverloaded)
	// ErrQueueTimeout reports that the request waited its full queue-wait
	// budget without a worker slot freeing up.
	ErrQueueTimeout = fmt.Errorf("queue wait limit exceeded: %w", ErrOverloaded)
	// ErrTenantSaturated reports that the request's graph already holds
	// its maximum share of the admission queue (Config.MaxGraphShare) —
	// the tenant is flooding, and admitting more of its requests would
	// starve the other graphs. Wraps ErrOverloaded, so transports map it
	// to the same retryable 503.
	ErrTenantSaturated = fmt.Errorf("graph's admission-queue share exhausted: %w", ErrOverloaded)
	// ErrEmptyBatch reports SubmitBatch with no items.
	ErrEmptyBatch = errors.New("service: empty batch")
	// ErrNilCallback reports Stream with a nil sink.
	ErrNilCallback = errors.New("service: nil embedding sink")
	// ErrNilQuery reports a request without a query graph.
	ErrNilQuery = errors.New("service: nil query graph")
	// ErrClosed reports a submit after Close.
	ErrClosed = errors.New("service: closed")
)
