package core

import (
	"errors"
	"fmt"
	"runtime/debug"

	"subgraphmatching/internal/graph"
)

// Typed sentinel errors for degenerate inputs. Callers classify failures
// with errors.Is instead of parsing messages; the public API re-exports
// these, and the serving layer maps them onto protocol status codes.
var (
	// ErrNilGraph reports a nil query or data graph.
	ErrNilGraph = errors.New("nil graph")
	// ErrEmptyQuery reports a query graph with no vertices.
	ErrEmptyQuery = errors.New("empty query graph")
	// ErrDisconnectedQuery reports a query graph that is not connected —
	// the generic pipeline enumerates connected-prefix orders only.
	ErrDisconnectedQuery = errors.New("query graph must be connected")
	// ErrQueryTooLarge reports a query with more vertices than the data
	// graph; no injective mapping can exist. Match treats this as an
	// empty result for backward compatibility, while strict validators
	// (the serving layer) reject it before any preprocessing runs.
	ErrQueryTooLarge = errors.New("query has more vertices than the data graph")
	// ErrUnknownLabel reports a query vertex label that no data vertex
	// carries; every candidate set would be empty. Like ErrQueryTooLarge
	// it is a strict-validation error, not a Match failure.
	ErrUnknownLabel = errors.New("query uses a label absent from the data graph")
	// ErrTwoSinks reports Limits with both OnRun and OnMatch set: a run
	// delivers its embeddings to one sink.
	ErrTwoSinks = errors.New("both OnRun and OnMatch are set")
	// ErrInternal reports a panic recovered on the way — in a parallel
	// enumeration worker, or in the serving layer's plan and run steps: a
	// bug, never a property of the input. The error's first line names
	// the panic; the lines after it hold the stack of the goroutine that
	// panicked.
	ErrInternal = errors.New("internal error")
)

// recovered is the ErrInternal error a recovered panic value r becomes.
// Call it in the deferred function that recovered r, so the stack is the
// panicking goroutine's.
func recovered(r any) error {
	return fmt.Errorf("core: %w: %v\n%s", ErrInternal, r, debug.Stack())
}

// Validate checks a (query, data) pair for degenerate inputs, returning
// the first applicable typed error. It is strict: conditions Match
// tolerates with an empty result (oversized queries, unknown labels) are
// errors here, because a serving layer wants to reject such requests
// before admission rather than spend preprocessing to learn the answer
// is the empty set.
func Validate(q, g *graph.Graph) error {
	if q == nil || g == nil {
		return ErrNilGraph
	}
	if q.NumVertices() == 0 {
		return ErrEmptyQuery
	}
	if !q.IsConnected() {
		return ErrDisconnectedQuery
	}
	if q.NumVertices() > g.NumVertices() {
		return ErrQueryTooLarge
	}
	for _, l := range q.Labels() {
		if g.LabelFrequency(l) == 0 {
			return ErrUnknownLabel
		}
	}
	return nil
}
