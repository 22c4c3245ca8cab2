// Package core wires the study's components — filtering, ordering,
// auxiliary-structure construction, and enumeration — into the generic
// subgraph matching pipeline of the paper's Algorithm 1, and defines the
// algorithm presets (QuickSI, GraphQL, CFL, CECI, DP-iso, RI, VF2++, the
// paper's recommended Optimized configuration, and the Glasgow CP
// solver).
//
// The decomposition is the paper's primary contribution: an algorithm is
// a (filter, order, local-candidate, optimization) tuple, and any
// combination can be executed and measured, which is how every experiment
// in Section 5 is expressed.
package core

import (
	"fmt"
	"sync/atomic"
	"time"

	"subgraphmatching/internal/candspace"
	"subgraphmatching/internal/enumerate"
	"subgraphmatching/internal/filter"
	"subgraphmatching/internal/glasgow"
	"subgraphmatching/internal/graph"
	"subgraphmatching/internal/intersect"
	"subgraphmatching/internal/obs"
	"subgraphmatching/internal/order"
	"subgraphmatching/internal/ullmann"
	"subgraphmatching/internal/vf2"
)

// Config selects one point in the study's design space: the paper's
// (filter, order, local candidates, optimisations) tuple. What a choice
// implies is derived, not set — Local == TreeEdge builds CFL's
// tree-edge auxiliary structure, Adaptive builds DP-iso's weight array.
type Config struct {
	// Filter selects the candidate filtering method, run at its
	// defaults (the ablations tune it through filter.Options).
	Filter filter.Method
	// Order selects the ordering method. Ignored when a FixedOrder is
	// supplied.
	Order order.Method
	// FixedOrder, when non-nil, bypasses the ordering method entirely
	// (used by the spectrum analysis of Figure 14).
	FixedOrder []graph.Vertex
	// Local selects the local-candidate computation (paper Algorithms
	// 2-5). TreeEdge builds the auxiliary structure only over
	// spanning-tree edges (CFL's compressed path index), Intersect over
	// every query edge.
	Local enumerate.LocalCandidates
	// Kernel selects the pairwise intersection-kernel policy for the
	// Intersect local method: the paper's size-ratio merge/gallop switch
	// (the zero value) or one pinned static kernel (merge/gallop/block —
	// PolicyBlock is Figure 10's QFilter arm, and the only policy that
	// materializes the flat block layout at build time).
	Kernel intersect.Policy
	// FailingSets enables the failing-sets pruning.
	FailingSets bool
	// Adaptive enables DP-iso's dynamic vertex selection, weighted by
	// its path-count weight array; requires the Intersect local method.
	Adaptive bool
	// VF2PPRules enables VF2++'s extra cutoff rules (Direct mode only).
	VF2PPRules bool
	// Homomorphism finds subgraph homomorphisms instead of isomorphisms
	// (injectivity dropped — the WCOJ systems' default semantics, paper
	// Section 2.2). The Filter setting is ignored: only label-based
	// candidate generation is sound without injectivity. Incompatible
	// with SymmetryBreaking, VF2PPRules and UseGlasgow.
	Homomorphism bool
	// SymmetryBreaking detects interchangeable query vertices
	// (neighborhood equivalence classes, the structures behind
	// TurboIso's query compression in Section 3.4), enumerates one
	// canonical embedding per orbit and multiplies the count by the
	// orbit size. OnMatch receives only canonical representatives, and
	// MaxEmbeddings caps canonical embeddings (the reported total may
	// exceed it by the orbit factor).
	SymmetryBreaking bool
	// UseGlasgow routes the query to the constraint-programming solver;
	// all other fields are ignored.
	UseGlasgow bool
	// UseVF2 routes the query to the classic VF2 state-space engine;
	// all other fields are ignored.
	UseVF2 bool
	// UseUllmann routes the query to Ullmann's 1976 algorithm; all
	// other fields are ignored.
	UseUllmann bool
	// GlasgowMemoryBudget bounds the CP solver's bitset working set
	// (0 = glasgow.DefaultMemoryBudget).
	GlasgowMemoryBudget int64
}

// External reports whether the configuration routes the query to one of
// the engines that run outside the filter/order/enumerate pipeline
// (Glasgow, VF2, Ullmann). Those have no preprocessing plan, so nothing
// to cache, share across a batch group or explain.
func (c Config) External() bool {
	return c.UseGlasgow || c.UseVF2 || c.UseUllmann
}

// Limits bounds a query's execution, mirroring the paper's methodology
// (10^5 embeddings, five minutes per query).
type Limits struct {
	MaxEmbeddings uint64
	TimeLimit     time.Duration
	// Cancel, when non-nil, is polled cooperatively during enumeration:
	// storing true stops the search. The parallel runner additionally
	// uses the same flag as its internal stop signal, so it may itself
	// store true when the embedding cap is reached or the sink declines
	// — callers must hand each run its own flag, not a shared long-lived
	// one. This is how context cancellation reaches the engines.
	Cancel *atomic.Bool
	// OnRun optionally receives every embedding, a leaf run at a time —
	// the engine's own contract (enumerate.Options.OnRun): mapping with
	// position u open, completed in emission order by each data vertex
	// of vs. The sink may write mapping[u]; both slices are the engine's
	// and valid only during the call, at every worker count. It returns
	// how many of vs it took, in order; fewer than len(vs) stops the
	// search, and only embeddings taken are counted. Under parallel
	// execution calls are serialized and arrive in no particular order.
	OnRun func(mapping []uint32, u graph.Vertex, vs []uint32) (taken int)
	// OnMatch is the per-embedding form of the same sink, for callers
	// that want one call per embedding: it sees the mappings of a run
	// one after the other, and returning false declines that embedding
	// and stops the search (the external engines, which call it
	// directly, count the declined embedding; the pipeline does not).
	// The slice rules are OnRun's. Setting both is ErrTwoSinks.
	OnMatch func(mapping []uint32) bool
	// Parallel runs the enumeration across this many worker goroutines
	// (0 or 1 = sequential). Embedding counts remain exact. Not
	// supported for the VF2/Ullmann engines; Glasgow has its own
	// parallel splitter. Preprocessing always runs on the caller's
	// goroutine.
	Parallel int
	// Trace attaches the phase-span breakdown to Result.Trace. Spans
	// are built only at phase boundaries (a handful of allocations per
	// query), never inside the enumeration hot path.
	Trace bool
	// Profile attaches the EXPLAIN/ANALYZE breakdown to Result.Explain:
	// per-filter-stage candidate reduction, the matching order with
	// per-vertex cardinalities, and the per-depth enumeration heat table
	// — with the per-depth search statistics behind it on Result.Profile.
	// Parallel runs merge the per-worker profiles; shallow-depth counts
	// there differ slightly from a sequential run because pinned task
	// prefixes skip the shared root levels. It is a per-request limit,
	// not part of the configuration: a cached plan is shared between
	// profiled and unprofiled requests. Not supported by the external
	// engines (Glasgow/VF2/Ullmann), which have no plan to explain.
	Profile bool
}

// runSink resolves the one sink a run delivers to, in the run form —
// the only form below MatchPlan: OnRun as it is, OnMatch behind the
// per-embedding adapter, nil for a run that only counts.
func (l *Limits) runSink() (func([]uint32, graph.Vertex, []uint32) int, error) {
	if l.OnMatch == nil {
		return l.OnRun, nil
	}
	if l.OnRun != nil {
		return nil, fmt.Errorf("core: %w", ErrTwoSinks)
	}
	onMatch := l.OnMatch
	return func(m []uint32, u graph.Vertex, vs []uint32) int {
		for i, v := range vs {
			m[u] = v
			if !onMatch(m) {
				return i
			}
		}
		return len(vs)
	}, nil
}

// perEmbeddingSink is the sink in the form the external engines
// (Glasgow, VF2, Ullmann) call: OnMatch as it is, OnRun fed runs of one.
// With the whole mapping known any position can play the open one; the
// run is position 0 itself, so a sink writing mapping[0] = vs[0] writes
// what is there.
func (l *Limits) perEmbeddingSink() (func([]uint32) bool, error) {
	if l.OnRun == nil {
		return l.OnMatch, nil
	}
	if l.OnMatch != nil {
		return nil, fmt.Errorf("core: %w", ErrTwoSinks)
	}
	onRun := l.OnRun
	return func(m []uint32) bool { return onRun(m, 0, m[:1]) == 1 }, nil
}

// Result reports a query's execution, with the time split the paper
// measures: preprocessing (filtering + auxiliary structure + ordering)
// versus enumeration.
type Result struct {
	Embeddings uint64
	Nodes      uint64
	TimedOut   bool
	LimitHit   bool

	FilterTime time.Duration
	BuildTime  time.Duration
	OrderTime  time.Duration
	EnumTime   time.Duration

	// MeanCandidates is (1/|V(q)|) sum |C(u)|, the Figure 8 metric.
	MeanCandidates float64
	// MemoryBytes is the candidate-set plus auxiliary-structure
	// footprint (Glasgow: the bitset working set).
	MemoryBytes int64
	// Order is the matching order used (nil for Glasgow and adaptive
	// runs, where no static order exists).
	Order []graph.Vertex
	// Profile holds per-depth search statistics when Limits.Profile was
	// set.
	Profile *enumerate.SearchProfile
	// WorkerProfiles, set on profiled parallel runs, holds each worker's
	// own per-depth profile (Profile is their merge) — the per-worker
	// heat attribution EXPLAIN reports.
	WorkerProfiles []*enumerate.SearchProfile
	// Explain is the EXPLAIN/ANALYZE breakdown, set when Limits.Profile
	// was on: filter-stage reduction, order cardinalities, and the
	// per-depth heat table, all reconciling exactly with this Result's
	// totals.
	Explain *Profile
	// Kernels tallies the pairwise intersection-kernel executions by
	// kernel (the run's kernel mix under Config.Kernel); summed across
	// workers on parallel runs, all zeros for non-intersection locals.
	Kernels intersect.KernelStats
	// Workers, set on parallel runs, carries each worker's scheduler
	// tallies: tasks executed, successful and failed steal attempts,
	// and search-tree nodes. Counters are accumulated in worker-local
	// variables and published once at worker exit, so collecting them
	// costs nothing on the task loop. The spread of Nodes measures load
	// balance: sum/max is the speedup the task partition would admit on
	// unconstrained cores (the makespan bound), independent of how many
	// CPUs this process actually got.
	Workers []WorkerStats
	// Split, set on parallel runs, reports the scheduler's task pool:
	// the root tasks and the ones running searches donated.
	Split *SplitInfo
	// Trace is the phase-span breakdown, set when Limits.Trace was on.
	// For Match the root span is "match" with "preprocess" and
	// "enumerate" children; for MatchPlan it is the "enumerate" span
	// alone (the preprocessing spans live on the plan the caller
	// reused).
	Trace *obs.Span
}

// WorkerStats is one parallel worker's scheduler tally.
type WorkerStats struct {
	// Tasks is the number of task units (root candidates or donated
	// prefixes) the worker executed.
	Tasks uint64
	// Steals counts successful chunk steals; FailedSteals counts empty
	// victims probed during steal sweeps. A high failed/successful
	// ratio at the end of a run is the normal termination pattern; a
	// high ratio throughout signals task starvation.
	Steals       uint64
	FailedSteals uint64
	// Nodes is the search-tree nodes the worker expanded.
	Nodes uint64
}

// PreprocessTime is FilterTime + BuildTime + OrderTime.
func (r *Result) PreprocessTime() time.Duration {
	return r.FilterTime + r.BuildTime + r.OrderTime
}

// TotalTime is preprocessing plus enumeration.
func (r *Result) TotalTime() time.Duration { return r.PreprocessTime() + r.EnumTime }

// Solved reports whether the query completed within its limits (reaching
// the embedding cap counts as solved, timing out does not).
func (r *Result) Solved() bool { return !r.TimedOut }

// Plan is the reusable product of the preprocessing pipeline for one
// (query, data, config) triple: the filtered candidate sets, the
// auxiliary candidate-space structure, the matching order, DP-iso's
// weight array and the symmetry classes — everything enumeration needs,
// and everything the paper's time split files under "preprocessing".
//
// A Plan is immutable once built. MatchPlan runs enumerate over it
// without mutating any field, so one Plan may serve many concurrent
// MatchPlan calls — this is the contract the serving layer's plan cache
// is built on.
type Plan struct {
	// Query and Data are the graphs the plan was preprocessed for.
	Query, Data *graph.Graph
	// Cfg is the configuration the plan was built under; enumeration
	// replays its Local/FailingSets/Adaptive/... choices.
	Cfg Config
	// Cand holds the filtered candidate sets C(u), indexed by query
	// vertex.
	Cand [][]uint32
	// Space is the candidate-space CSR (nil for Direct/Scan locals).
	Space *candspace.Space
	// Order is the matching order (nil when Empty).
	Order []graph.Vertex
	// Weights is DP-iso's path-count weight array (nil unless
	// Cfg.Adaptive).
	Weights [][]float64
	// SymClasses and Orbit carry the symmetry-breaking setup; Orbit is 1
	// when symmetry breaking is off.
	SymClasses [][]graph.Vertex
	Orbit      uint64
	// Empty marks a plan whose filtering produced an empty candidate set:
	// the result is the empty set and enumeration is skipped entirely.
	Empty bool
	// Stages records the filtering method's internal stages with
	// per-query-vertex candidate counts at each boundary — the raw
	// material of EXPLAIN's reduction table. Populated even for Empty
	// plans (the stage that killed the last candidate is exactly what
	// EXPLAIN must show).
	Stages []filter.Stage
	// OrderMethod names how Order was chosen ("gql", "ri", "fixed",
	// ...); empty for Empty plans, which never reach ordering.
	OrderMethod string

	// FilterTime, BuildTime and OrderTime record how long each
	// preprocessing step took when the plan was built — the cost a plan
	// reuse saves.
	FilterTime time.Duration
	BuildTime  time.Duration
	OrderTime  time.Duration
	// MeanCandidates and MemoryBytes describe the candidate structures
	// (the Figure 8 metric and the footprint).
	MeanCandidates float64
	MemoryBytes    int64

	// Span is the preprocessing phase breakdown: a "preprocess" root
	// with "filter" (and its per-stage children), "build" and "order"
	// children. Always populated — span assembly
	// happens once per plan at phase boundaries and is dwarfed by the
	// phases themselves. Immutable once the plan is built: cached plans
	// share it across requests.
	Span *obs.Span
}

// Preprocess runs the preprocessing half of the pipeline — filtering
// (paper Algorithm 1 line 1), auxiliary-structure construction, ordering
// (line 2) and the symmetry-class setup — and returns the resulting
// Plan. Every layer runs on the caller's goroutine, so a panic in one
// reaches the caller. The int is ignored: the form predates the
// one-goroutine build, and cmd/smatchbench still calls it.
// Configurations routed to the external engines have no plan;
// Preprocess reports ErrNoPlan for them. The QFilter block layout is
// built only under the pinned-block policy, the one policy that reads
// it.
func Preprocess(q, g *graph.Graph, cfg Config, _ int) (*Plan, error) {
	if q == nil || g == nil {
		return nil, fmt.Errorf("core: %w", ErrNilGraph)
	}
	if cfg.External() {
		return nil, fmt.Errorf("core: %w", ErrNoPlan)
	}
	if q.NumVertices() == 0 {
		return nil, fmt.Errorf("core: %w", ErrEmptyQuery)
	}
	if !q.IsConnected() {
		return nil, fmt.Errorf("core: %w", ErrDisconnectedQuery)
	}
	if cfg.Homomorphism && (cfg.SymmetryBreaking || cfg.VF2PPRules) {
		return nil, fmt.Errorf("core: homomorphism mode is incompatible with symmetry breaking and VF2++ rules")
	}
	plan := &Plan{Query: q, Data: g, Cfg: cfg, Orbit: 1}
	plan.Span = obs.StartSpan("preprocess")

	// Step 1: filtering. The method's internal stages (e.g. GQL's local
	// pruning and refinement rounds, CFL's generate/refine phases)
	// become children of the filter span.
	t0 := time.Now()
	stages := filter.StageTrace{PerVertex: true}
	cand, err := runFilter(q, g, cfg, &stages)
	if err != nil {
		return nil, err
	}
	plan.Cand = cand
	plan.FilterTime = time.Since(t0)
	plan.MeanCandidates = filter.MeanCandidates(cand)
	fs := obs.NewSpan("filter", t0, plan.FilterTime)
	if cfg.Homomorphism {
		fs.SetAttr("method", "label-only")
	} else {
		fs.SetAttr("method", cfg.Filter.String())
	}
	fs.SetAttr("candidates", filter.TotalCandidates(cand))
	for _, st := range stages.Stages {
		fs.AddChild(obs.NewSpan(st.Name, time.Time{}, st.Duration).
			SetAttr("candidates", st.Candidates))
	}
	plan.Span.AddChild(fs)
	plan.Stages = stages.Stages
	if filter.AnyEmpty(cand) {
		plan.Empty = true
		plan.Span.SetAttr("empty", true)
		plan.Span.End()
		return plan, nil
	}

	// Step 1b: auxiliary structure — CFL's tree-edge index for TreeEdge,
	// every query edge for Intersect.
	t0 = time.Now()
	structure := "none"
	switch cfg.Local {
	case enumerate.TreeEdge:
		structure = "tree"
		tree := graph.NewBFSTree(q, filter.Root(filter.CFL, q, g))
		plan.Space = candspace.Build(q, g, cand, tree.Parent)
	case enumerate.Intersect:
		structure = "full"
		plan.Space = candspace.Build(q, g, cand, nil)
		if cfg.Kernel == intersect.PolicyBlock {
			plan.Space.MaterializeBlocks()
		}
	}
	plan.BuildTime = time.Since(t0)
	if plan.Space != nil {
		plan.MemoryBytes = plan.Space.MemoryBytes()
	} else {
		for _, c := range cand {
			plan.MemoryBytes += int64(len(c)) * 4
		}
	}
	bs := obs.NewSpan("build", t0, plan.BuildTime).
		SetAttr("structure", structure).
		SetAttr("memory_bytes", plan.MemoryBytes)
	if plan.Space != nil && plan.Space.HasBlocks() {
		sets, blocks, elems := plan.Space.BlockStats()
		density := 0.0
		if blocks > 0 {
			density = float64(elems) / float64(blocks)
		}
		bs.SetAttr("block_sets", sets).
			SetAttr("block_density", density).
			SetAttr("block_memory_bytes", plan.Space.BlockMemoryBytes())
	}
	plan.Span.AddChild(bs)

	// Step 2: ordering.
	t0 = time.Now()
	phi := cfg.FixedOrder
	orderMethod := "fixed"
	if phi == nil {
		if phi, err = order.Compute(cfg.Order, q, g, cand); err != nil {
			return nil, err
		}
		orderMethod = cfg.Order.String()
	}
	if cfg.Adaptive && plan.Space != nil {
		plan.Weights = order.BuildDPWeights(q, plan.Space, phi)
	}
	plan.OrderTime = time.Since(t0)
	plan.Order = phi
	plan.OrderMethod = orderMethod
	plan.Span.AddChild(obs.NewSpan("order", t0, plan.OrderTime).
		SetAttr("method", orderMethod))

	if cfg.SymmetryBreaking {
		plan.SymClasses = NeighborhoodEquivalenceClasses(q)
		plan.Orbit = OrbitMultiplier(plan.SymClasses)
	}
	plan.Span.End()
	return plan, nil
}

// PreprocessTime is the plan's FilterTime + BuildTime + OrderTime — the
// cost each cache hit on this plan saves.
func (p *Plan) PreprocessTime() time.Duration {
	return p.FilterTime + p.BuildTime + p.OrderTime
}

// planBaseBytes approximates the fixed per-plan overhead: the Plan
// struct itself plus the handful of preprocessing spans attached to it.
const planBaseBytes = 512

// SizeBytes estimates the plan's resident heap footprint: the filtered
// candidate sets, the candidate-space CSR, the flat block arenas (a
// pinned-block plan's only), and the order/weight/symmetry slices, plus
// a fixed struct-and-span overhead.
// Plans are CSR-dominated and wildly uneven across workloads — a
// 4-vertex query over a small graph costs kilobytes while a dense
// candidate space costs tens of megabytes — so the serving layer's plan
// cache budgets by this number instead of by entry count. The query and
// data graphs are NOT charged: the data graph is owned by the registry
// and shared by every plan against it, and the query graph is the
// caller's.
func (p *Plan) SizeBytes() int64 {
	b := int64(planBaseBytes)
	if p.Space != nil {
		// Space.MemoryBytes covers the candidate sets too — the Space
		// aliases the same slices Cand holds, so charging both would
		// double-count.
		b += p.Space.MemoryBytes() + p.Space.BlockMemoryBytes()
	} else {
		for _, c := range p.Cand {
			b += int64(len(c))*4 + 24 // elements + slice header
		}
	}
	b += int64(len(p.Order)) * 4
	for _, w := range p.Weights {
		b += int64(len(w))*8 + 24
	}
	for _, cls := range p.SymClasses {
		b += int64(len(cls))*4 + 24
	}
	return b
}

// MatchPlan runs the enumeration step (paper Algorithm 1 line 3) over a
// previously built plan. The plan is read-only: concurrent MatchPlan
// calls over one shared plan are safe, each allocating its own engines.
// The returned Result carries only enumeration-side fields; the
// preprocessing times live on the plan (a caller reusing a cached plan
// did not pay them).
func MatchPlan(plan *Plan, limits Limits) (*Result, error) {
	// From here down there is one sink contract, the run form.
	sink, err := limits.runSink()
	if err != nil {
		return nil, err
	}
	limits.OnRun, limits.OnMatch = sink, nil
	cfg := plan.Cfg
	res := &Result{MeanCandidates: plan.MeanCandidates, MemoryBytes: plan.MemoryBytes}
	enumStart := time.Now()
	if !plan.Empty {
		res.Order = plan.Order
		opts := enumerate.Options{
			Local:           cfg.Local,
			Kernel:          cfg.Kernel,
			FailingSets:     cfg.FailingSets,
			Adaptive:        cfg.Adaptive,
			AdaptiveWeights: plan.Weights,
			VF2PPRules:      cfg.VF2PPRules,
			Homomorphism:    cfg.Homomorphism,
			SymmetryClasses: plan.SymClasses,
			MaxEmbeddings:   limits.MaxEmbeddings,
			TimeLimit:       limits.TimeLimit,
			OnRun:           limits.OnRun,
			Cancel:          limits.Cancel,
			Profile:         limits.Profile,
		}
		if limits.Parallel > 1 {
			if cfg.SymmetryBreaking || cfg.Homomorphism {
				return nil, fmt.Errorf("core: parallel execution does not yet compose with symmetry breaking or homomorphism mode")
			}
			if err := matchParallel(plan, opts, limits, res); err != nil {
				return nil, err
			}
		} else {
			// Sequential is the engine called directly: no task pool, deque
			// or goroutine stands between a request and its search.
			stats, err := enumerate.Run(plan.Query, plan.Data, plan.Cand, plan.Space, plan.Order, opts)
			if err != nil {
				return nil, err
			}
			res.Embeddings = stats.Embeddings * plan.Orbit
			res.Nodes = stats.Nodes
			res.TimedOut = stats.TimedOut
			res.LimitHit = stats.LimitHit
			res.EnumTime = stats.Duration
			res.Profile = stats.Profile
			res.Kernels = stats.Kernels
		}
	}
	if limits.Trace {
		if plan.Empty {
			res.Trace = obs.NewSpan("enumerate", enumStart, 0).SetAttr("empty", true)
		} else {
			res.Trace = enumerateSpan(enumStart, res)
		}
	}
	if limits.Profile {
		res.Explain = explainResult(plan, res)
	}
	return res, nil
}

// enumerateSpan builds the "enumerate" span from a finished result:
// outcome attributes plus one zero-duration child per parallel worker
// carrying that worker's scheduler tallies. Worker children annotate
// rather than time (they all cover the same wall interval), so the
// sum-of-children invariant holds trivially.
func enumerateSpan(start time.Time, res *Result) *obs.Span {
	es := obs.NewSpan("enumerate", start, res.EnumTime).
		SetAttr("embeddings", res.Embeddings).
		SetAttr("nodes", res.Nodes)
	if res.TimedOut {
		es.SetAttr("timed_out", true)
	}
	if res.LimitHit {
		es.SetAttr("limit_hit", true)
	}
	if s := res.Split; s != nil {
		es.SetAttr("split_tasks", uint64(s.Tasks))
	}
	for i, n := range res.Kernels {
		if n != 0 {
			es.SetAttr("kernel_"+intersect.Kernel(i).String(), n)
		}
	}
	for w, ws := range res.Workers {
		es.AddChild(obs.NewSpan(fmt.Sprintf("worker-%d", w), time.Time{}, 0).
			SetAttr("tasks", ws.Tasks).
			SetAttr("steals", ws.Steals).
			SetAttr("failed_steals", ws.FailedSteals).
			SetAttr("nodes", ws.Nodes))
	}
	return es
}

// Match runs the full pipeline for one query: Preprocess followed by
// MatchPlan, with the external engines (Glasgow, VF2, Ullmann)
// dispatched directly.
func Match(q, g *graph.Graph, cfg Config, limits Limits) (*Result, error) {
	if q == nil || g == nil {
		return nil, fmt.Errorf("core: %w", ErrNilGraph)
	}
	start := time.Now()
	if cfg.External() {
		if q.NumVertices() == 0 {
			return nil, fmt.Errorf("core: %w", ErrEmptyQuery)
		}
		if !q.IsConnected() {
			return nil, fmt.Errorf("core: %w", ErrDisconnectedQuery)
		}
		if cfg.Homomorphism {
			return nil, fmt.Errorf("core: the external engines do not support homomorphisms")
		}
		// The external engines emit one embedding at a time.
		onMatch, err := limits.perEmbeddingSink()
		if err != nil {
			return nil, err
		}
		limits.OnMatch, limits.OnRun = onMatch, nil
		var (
			res    *Result
			engine string
		)
		switch {
		case cfg.UseGlasgow:
			res, err = matchGlasgow(q, g, cfg, limits)
			engine = "glasgow"
		case cfg.UseVF2:
			res, err = matchVF2(q, g, limits)
			engine = "vf2"
		default:
			res, err = matchUllmann(q, g, limits)
			engine = "ullmann"
		}
		if err != nil {
			return nil, err
		}
		if limits.Trace {
			res.Trace = obs.NewSpan("match", start, time.Since(start)).
				AddChild(enumerateSpan(start, res).SetAttr("engine", engine))
		}
		return res, nil
	}
	plan, err := Preprocess(q, g, cfg, 1)
	if err != nil {
		return nil, err
	}
	return MatchFresh(plan, limits, start)
}

// MatchFresh is MatchPlan for the caller that built plan for this very
// query, at start: the result is charged the plan's preprocessing times
// and, when tracing, its "match" span holds the plan's preprocess span
// beside the enumerate span. A caller that reuses a plan did not pay
// those phases and calls MatchPlan.
func MatchFresh(plan *Plan, limits Limits, start time.Time) (*Result, error) {
	res, err := MatchPlan(plan, limits)
	if err != nil {
		return nil, err
	}
	res.FilterTime = plan.FilterTime
	res.BuildTime = plan.BuildTime
	res.OrderTime = plan.OrderTime
	if limits.Trace {
		res.Trace = obs.NewSpan("match", start, time.Since(start)).
			AddChild(plan.Span).
			AddChild(res.Trace)
	}
	return res, nil
}

// runFilter runs the configured filtering method once, recording its
// internal stages into tr.
func runFilter(q, g *graph.Graph, cfg Config, tr *filter.StageTrace) ([][]uint32, error) {
	if cfg.Homomorphism {
		// Structural filters assume injectivity (even LDF's degree
		// condition); only label candidates are sound for
		// homomorphisms.
		return filter.RunLabelOnly(q, g), nil
	}
	return filter.RunOpts(cfg.Filter, q, g, filter.Options{Trace: tr})
}

func matchVF2(q, g *graph.Graph, limits Limits) (*Result, error) {
	st, err := vf2.Solve(q, g, vf2.Options{
		MaxEmbeddings: limits.MaxEmbeddings,
		TimeLimit:     limits.TimeLimit,
		OnMatch:       limits.OnMatch,
		Cancel:        limits.Cancel,
	})
	if err != nil {
		return nil, err
	}
	return &Result{
		Embeddings: st.Embeddings,
		Nodes:      st.Nodes,
		TimedOut:   st.TimedOut,
		LimitHit:   st.LimitHit,
		EnumTime:   st.Duration,
	}, nil
}

func matchUllmann(q, g *graph.Graph, limits Limits) (*Result, error) {
	st, err := ullmann.Solve(q, g, ullmann.Options{
		MaxEmbeddings: limits.MaxEmbeddings,
		TimeLimit:     limits.TimeLimit,
		OnMatch:       limits.OnMatch,
		Cancel:        limits.Cancel,
	})
	if err != nil {
		return nil, err
	}
	return &Result{
		Embeddings: st.Embeddings,
		Nodes:      st.Nodes,
		TimedOut:   st.TimedOut,
		LimitHit:   st.LimitHit,
		EnumTime:   st.Duration,
	}, nil
}

func matchGlasgow(q, g *graph.Graph, cfg Config, limits Limits) (*Result, error) {
	st, err := glasgow.Solve(q, g, glasgow.Options{
		MaxEmbeddings: limits.MaxEmbeddings,
		TimeLimit:     limits.TimeLimit,
		MemoryBudget:  cfg.GlasgowMemoryBudget,
		OnMatch:       limits.OnMatch,
		Parallel:      limits.Parallel,
		Cancel:        limits.Cancel,
	})
	if err != nil {
		return nil, err
	}
	return &Result{
		Embeddings:  st.Embeddings,
		Nodes:       st.Nodes,
		TimedOut:    st.TimedOut,
		LimitHit:    st.LimitHit,
		EnumTime:    st.Duration,
		MemoryBytes: st.MemoryBytes,
	}, nil
}
