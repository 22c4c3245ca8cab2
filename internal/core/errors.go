package core

import (
	"errors"

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
	// ErrNoPlan reports a configuration routed to an external engine
	// (Glasgow, VF2, Ullmann), which bypasses the filter/order/enumerate
	// pipeline and therefore has no reusable preprocessing plan.
	ErrNoPlan = errors.New("algorithm bypasses the preprocessing pipeline and has no plan")
	// ErrTwoSinks reports Limits with both OnRun and OnMatch set: a run
	// delivers its embeddings to one sink.
	ErrTwoSinks = errors.New("both OnRun and OnMatch are set")
)

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
