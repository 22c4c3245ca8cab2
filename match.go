package subgraphmatching

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"subgraphmatching/internal/core"
	"subgraphmatching/internal/enumerate"
	"subgraphmatching/internal/filter"
	"subgraphmatching/internal/intersect"
	"subgraphmatching/internal/obs"
	"subgraphmatching/internal/order"
)

// Span is one node of a trace: a named phase with a start time,
// duration, key/value attributes, and child phases. Result.Trace holds
// the root when Options.Trace is set; Span.Render pretty-prints the
// tree and the JSON encoding is stable for machine consumption.
type Span = obs.Span

// Algorithm selects one of the study's algorithm presets.
type Algorithm = core.Algorithm

// Algorithm presets, reproducing the eight studied algorithms plus the
// paper's recommended configuration.
const (
	AlgoQuickSI   = core.QuickSI
	AlgoGraphQL   = core.GraphQL
	AlgoCFL       = core.CFL
	AlgoCECI      = core.CECI
	AlgoDPIso     = core.DPIso
	AlgoRI        = core.RI
	AlgoVF2PP     = core.VF2PP
	AlgoOptimized = core.Optimized
	AlgoGlasgow   = core.Glasgow
	// AlgoVF2 and AlgoUllmann are the historical baselines of the
	// paper's Table 1 — the algorithms VF2++ and the modern filters are
	// measured against.
	AlgoVF2     = core.VF2Classic
	AlgoUllmann = core.Ullmann
)

// Algorithms lists every preset.
func Algorithms() []Algorithm { return core.Algorithms() }

// PresetConfig returns the component configuration behind a preset for
// the given query and data graph — the starting point for tweaking a
// known algorithm (e.g. enabling Config.FailingSets or Config.SymmetryBreaking).
func PresetConfig(a Algorithm, q, g *Graph) Config { return core.PresetConfig(a, q, g) }

// ParseAlgorithm maps a preset name (QSI, GQL, CFL, CECI, DPiso, RI,
// VF2PP, Optimized, GLW) to its Algorithm.
func ParseAlgorithm(s string) (Algorithm, error) { return core.ParseAlgorithm(s) }

// Config selects an arbitrary point in the study's design space: any
// combination of filtering method, ordering method, local-candidate
// computation and optimizations.
type Config = core.Config

// FilterMethod selects a candidate filtering method (paper Section 3.1).
type FilterMethod = filter.Method

// Filtering methods.
const (
	FilterLDF    = filter.LDF
	FilterNLF    = filter.NLF
	FilterGQL    = filter.GQL
	FilterCFL    = filter.CFL
	FilterCECI   = filter.CECI
	FilterDPIso  = filter.DPIso
	FilterSteady = filter.Steady
)

// OrderMethod selects a query-vertex ordering method (paper Section
// 3.2).
type OrderMethod = order.Method

// Ordering methods.
const (
	OrderQSI   = order.QSI
	OrderGQL   = order.GQL
	OrderCFL   = order.CFL
	OrderCECI  = order.CECI
	OrderDPIso = order.DPIso
	OrderRI    = order.RI
	OrderVF2PP = order.VF2PP
)

// LocalCandidates selects the local-candidate computation (paper
// Algorithms 2-5).
type LocalCandidates = enumerate.LocalCandidates

// Local-candidate computations.
const (
	LocalDirect    = enumerate.Direct
	LocalScan      = enumerate.Scan
	LocalTreeEdge  = enumerate.TreeEdge
	LocalIntersect = enumerate.Intersect
)

// KernelPolicy selects how pairwise set intersections inside
// LocalIntersect enumeration are executed (Config.Kernel). The policy
// changes speed only — embeddings are identical under every policy.
type KernelPolicy = intersect.Policy

// Kernel policies. KernelAdaptive (the zero value and the default) is
// the paper's size-ratio switch: merge for operands of similar size,
// galloping once one is 32 times the other. The static policies pin
// one kernel and exist to reproduce the paper's Figure 10 style
// comparisons: KernelBlock is its QFilter arm, the only policy that
// builds and reads the word-parallel block layout.
const (
	KernelAdaptive = intersect.PolicyAdaptive
	KernelMerge    = intersect.PolicyMerge
	KernelGallop   = intersect.PolicyGallop
	KernelBlock    = intersect.PolicyBlock
)

// ParseKernelPolicy maps a policy name (adaptive, merge, gallop, block)
// to its KernelPolicy.
func ParseKernelPolicy(s string) (KernelPolicy, error) { return intersect.ParsePolicy(s) }

// Result reports one query's execution: embedding count, search-tree
// size, the preprocessing/enumeration time split, candidate statistics
// and memory use.
type Result = core.Result

// Profile is the EXPLAIN/ANALYZE breakdown attached to Result.Explain
// when Options.Explain is set: per-filter-stage candidate reduction,
// the matching order with per-vertex cardinalities, and the per-depth
// enumeration heat table. Profile.Render pretty-prints it; the JSON
// encoding is stable for machine consumption.
type Profile = core.Profile

// Options configures a Match call.
type Options struct {
	// Algorithm picks a preset. Ignored when Custom is set. The zero
	// value is AlgoQuickSI; most callers want AlgoOptimized.
	Algorithm Algorithm
	// Custom overrides the preset with an explicit component
	// configuration.
	Custom *Config
	// MaxEmbeddings stops the search after this many embeddings
	// (0 = find all). The paper's experiments use 1e5.
	MaxEmbeddings uint64
	// TimeLimit bounds the enumeration wall-clock time (0 = unlimited).
	// The paper's experiments use five minutes.
	TimeLimit time.Duration
	// OnMatch, when non-nil, receives each embedding indexed by query
	// vertex. Returning false stops the search; the embedding it was
	// returned for counts as declined, so Result.Embeddings is the
	// number of calls that returned true, for every algorithm. The
	// slice is reused between calls and valid only during the call, at
	// every Parallel setting: copy it to retain. Under parallel
	// execution calls are serialized and arrive in no particular order.
	OnMatch func(mapping []Vertex) bool
	// Parallel runs the enumeration across this many worker goroutines
	// (0 or 1 = sequential): one task per root candidate, rebalanced by
	// work stealing and by running searches donating work to idle
	// workers, reported in Result.Split and Result.Workers. Embedding
	// counts remain exact; not supported with AlgoVF2 and AlgoUllmann.
	// Preprocessing (filtering, candidate-space construction, ordering)
	// runs on the calling goroutine whatever Parallel says.
	Parallel int
	// Trace attaches a phase-span tree to Result.Trace: filtering (with
	// per-stage candidate counts), candidate-space construction,
	// ordering, and enumeration (with per-worker task/steal tallies
	// under Parallel). Timing fields are always populated; Trace only
	// controls building the structured tree.
	Trace bool
	// Explain attaches the EXPLAIN/ANALYZE Profile to Result.Explain:
	// what each filter stage eliminated, the matching order the planner
	// chose, and where the enumeration spent its search nodes, depth by
	// depth. Off by default — profiling adds a few per-node counter
	// increments; off, it costs nothing. The external engines
	// (AlgoGlasgow, AlgoVF2, AlgoUllmann) filter and order as they
	// search and record no heat: their Profile names the engine and
	// carries the totals.
	Explain bool
}

// Match finds subgraph isomorphisms from q to g. The query must be
// connected and non-empty.
func Match(q, g *Graph, opts Options) (*Result, error) {
	return match(q, g, opts, nil)
}

// match is the shared implementation behind Match and MatchContext;
// cancel, when non-nil, is the cooperative stop flag the engines poll.
func match(q, g *Graph, opts Options, cancel *atomic.Bool) (*Result, error) {
	if q == nil || g == nil {
		return nil, fmt.Errorf("subgraphmatching: %w", ErrNilGraph)
	}
	cfg := core.PresetConfig(opts.Algorithm, q, g)
	if opts.Custom != nil {
		cfg = *opts.Custom
	}
	return core.Match(q, g, cfg, core.Limits{
		MaxEmbeddings: opts.MaxEmbeddings,
		TimeLimit:     opts.TimeLimit,
		OnMatch:       opts.OnMatch,
		Parallel:      opts.Parallel,
		Trace:         opts.Trace,
		Profile:       opts.Explain,
		Cancel:        cancel,
	})
}

// MatchContext is Match under a context: cancelling ctx stops the
// search cooperatively (sequential, parallel, and the external engines
// all poll the same flag), and a ctx deadline tightens Options.TimeLimit
// so the engines' own deadline checks enforce it. When ctx ends before
// the search completes, the context's error is returned; a TimeLimit
// expiry that is not the context's deadline still reports a normal
// Result with TimedOut set, preserving the paper's unsolved-query
// accounting.
func MatchContext(ctx context.Context, q, g *Graph, opts Options) (*Result, error) {
	return core.RunContext(ctx, core.Limits{TimeLimit: opts.TimeLimit}, func(l core.Limits) (*Result, error) {
		opts.TimeLimit = l.TimeLimit
		return match(q, g, opts, l.Cancel)
	})
}

// ForEachMatch streams every embedding to fn under a context, combining
// MatchContext's cancellation with a mandatory callback: fn receives
// each mapping indexed by query vertex (see Options.OnMatch for the
// slice-reuse rules) and returns false to stop early. A nil fn is
// rejected with ErrNilCallback.
func ForEachMatch(ctx context.Context, q, g *Graph, opts Options, fn func(mapping []Vertex) bool) (*Result, error) {
	if fn == nil {
		return nil, fmt.Errorf("subgraphmatching: %w", ErrNilCallback)
	}
	opts.OnMatch = fn
	return MatchContext(ctx, q, g, opts)
}

// Count is a convenience wrapper returning only the number of
// embeddings.
func Count(q, g *Graph, opts Options) (uint64, error) {
	res, err := Match(q, g, opts)
	if err != nil {
		return 0, err
	}
	return res.Embeddings, nil
}

// FindAll collects up to limit embeddings (0 = all). Each returned
// mapping is indexed by query vertex.
func FindAll(q, g *Graph, opts Options, limit int) ([][]Vertex, error) {
	var out [][]Vertex
	inner := opts.OnMatch
	opts.OnMatch = func(m []Vertex) bool {
		out = append(out, append([]Vertex(nil), m...))
		if inner != nil && !inner(m) {
			return false
		}
		return limit == 0 || len(out) < limit
	}
	if _, err := Match(q, g, opts); err != nil {
		return nil, err
	}
	return out, nil
}
