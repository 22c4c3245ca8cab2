package subgraphmatching

import (
	"errors"

	"subgraphmatching/internal/core"
)

// Typed sentinel errors for degenerate inputs. Match, Count, FindAll and
// the context variants wrap these; test with errors.Is. The smatchd
// serving layer maps them onto HTTP status codes.
var (
	// ErrNilGraph reports a nil query or data graph.
	ErrNilGraph = core.ErrNilGraph
	// ErrEmptyQuery reports a query graph with no vertices.
	ErrEmptyQuery = core.ErrEmptyQuery
	// ErrDisconnectedQuery reports a query graph that is not connected.
	ErrDisconnectedQuery = core.ErrDisconnectedQuery
	// ErrQueryTooLarge reports a query with more vertices than the data
	// graph. Match tolerates this (the result is simply empty); Validate
	// and the serving layer reject it up front.
	ErrQueryTooLarge = core.ErrQueryTooLarge
	// ErrUnknownLabel reports a query vertex label no data vertex
	// carries. Like ErrQueryTooLarge it is a strict-validation error.
	ErrUnknownLabel = core.ErrUnknownLabel
	// ErrNilCallback reports a streaming call whose per-embedding
	// callback is nil.
	ErrNilCallback = errors.New("nil per-embedding callback")
)

// Validate checks a (query, data) pair for degenerate inputs, returning
// the first applicable typed error: ErrNilGraph, ErrEmptyQuery,
// ErrDisconnectedQuery, ErrQueryTooLarge or ErrUnknownLabel.
//
// Validate is strict: the last two conditions only make the result
// provably empty, and Match answers them with zero embeddings rather
// than an error. Callers that would rather reject such queries before
// paying preprocessing — batch drivers, servers — validate first; the
// smatchd service does exactly that.
func Validate(q, g *Graph) error { return core.Validate(q, g) }
