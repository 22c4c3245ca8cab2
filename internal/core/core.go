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
	"context"
	"fmt"
	"slices"
	"sync"
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
	// FailingSets enables the failing-sets pruning. It prunes nothing
	// under VF2PPRules (a Direct-only rule), whose cutoff reads every
	// mapped vertex, which no failing set accounts for.
	FailingSets bool
	// Adaptive enables DP-iso's dynamic vertex selection, weighted by
	// its path-count weight array; requires the Intersect local method.
	Adaptive bool
	// VF2PPRules enables VF2++'s extra cutoff rules. It requires the
	// Direct local method, the one whose candidates the cutoff filters:
	// Preprocess refuses any other. It turns FailingSets off: the cutoff
	// reads every mapped vertex.
	VF2PPRules bool
	// Homomorphism finds subgraph homomorphisms instead of isomorphisms
	// (injectivity dropped — the WCOJ systems' default semantics, paper
	// Section 2.2). The Filter setting is ignored: only label-based
	// candidate generation is sound without injectivity. Incompatible
	// with SymmetryBreaking, VF2PPRules and the three engine switches.
	Homomorphism bool
	// SymmetryBreaking detects interchangeable query vertices
	// (neighborhood equivalence classes, the structures behind
	// TurboIso's query compression in Section 3.4), enumerates one
	// canonical embedding per orbit and multiplies the count by the
	// orbit size. OnMatch receives only canonical representatives, and
	// MaxEmbeddings caps canonical embeddings (the reported total may
	// exceed it by the orbit factor).
	SymmetryBreaking bool
	// CountTail counts the embeddings below the order's independent tail
	// — its trailing, pairwise non-adjacent vertices — instead of
	// enumerating them, on runs with no sink that the parallel shared
	// cap does not hook (enumerate.Options.CountTail). It changes node
	// counts and nothing else. The Optimized preset sets it; the paper's
	// presets leave it off.
	CountTail bool
	// UseGlasgow routes the query to the constraint-programming solver;
	// of the other fields only Homomorphism is read, and refused.
	UseGlasgow bool
	// UseVF2 routes the query to the classic VF2 state-space engine, as
	// UseGlasgow does.
	UseVF2 bool
	// UseUllmann routes the query to Ullmann's 1976 algorithm, as
	// UseGlasgow does.
	UseUllmann bool
}

// engine names the engine outside the filter/order/enumerate pipeline
// that the configuration routes the query to — "glasgow", "vf2" or
// "ullmann", the OrderMethod of its plan — and is "" for the
// framework's own.
func (c Config) engine() string {
	switch {
	case c.UseGlasgow:
		return "glasgow"
	case c.UseVF2:
		return "vf2"
	case c.UseUllmann:
		return "ullmann"
	}
	return ""
}

// Check reports whether the tuple can run a query of n vertices, or the
// enumerate.ErrUnsupported error that names the constraint it breaks:
// enumerate.CheckOptions over the tuple's engine options, and symmetry
// breaking, which homomorphism mode refuses. Preprocess checks it
// before it filters, and the serving layer before it looks a plan up,
// so a refused tuple is neither planned nor cached. The engines outside
// the pipeline read no tuple; they find no homomorphisms.
func (c Config) Check(n int) error {
	if e := c.engine(); e != "" {
		if c.Homomorphism {
			return fmt.Errorf("core: %w: the %s engine does not find homomorphisms", enumerate.ErrUnsupported, e)
		}
		return nil
	}
	if c.Homomorphism && c.SymmetryBreaking {
		return fmt.Errorf("core: %w: homomorphism mode is incompatible with symmetry breaking", enumerate.ErrUnsupported)
	}
	return enumerate.CheckOptions(n, enumerate.Options{
		Local:        c.Local,
		FailingSets:  c.FailingSets,
		Adaptive:     c.Adaptive,
		VF2PPRules:   c.VF2PPRules,
		Homomorphism: c.Homomorphism,
	})
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
	// one. RunContext sets it when its context ends: this is how a
	// cancel reaches the engines.
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
	// and stops the search; a declined embedding is not counted. The
	// slice rules are OnRun's. Setting both is ErrTwoSinks.
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
	// profiled and unprofiled requests. The profile of an engine plan
	// (Glasgow/VF2/Ullmann) names its engine and carries the totals, with
	// no filter stages, order or heat table: the engine records none.
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
// The plan of a configuration routed to an engine outside the pipeline
// (Glasgow, VF2, Ullmann) holds Query, Data, Cfg and Orbit 1 and names
// its engine in OrderMethod: the engine filters and orders as it
// searches, so there is nothing to build ahead of the run.
//
// A Plan is immutable once built. MatchPlan runs enumerate over it
// without mutating any field, so one Plan may serve many concurrent
// MatchPlan calls — this is the contract the serving layer's plan cache
// is built on. The exceptions are the plan's free list of idle
// engines, unexported and behind its own lock — the zero value is an
// empty list, and the list goes with the plan when the plan is dropped —
// and the flag RaceOrders claims.
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
	// ...), or an engine plan's engine ("glasgow", "vf2", "ullmann");
	// empty for Empty plans, which never reach ordering.
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

	// Race is the order race that chose Order (RaceOrders), nil on a
	// plan that has not raced.
	Race *Race

	// Span is the preprocessing phase breakdown: a "preprocess" root
	// with "filter" (and its per-stage children), "order" and "build"
	// children, in the order they run. Always populated — span assembly
	// happens once per plan at phase boundaries and is dwarfed by the
	// phases themselves. Immutable once the plan is built: cached plans
	// share it across requests.
	Span *obs.Span

	// idle is the free list of engines over this plan that no run holds,
	// at most maxIdleEngines long (takeEngine, parkEngine).
	engineMu sync.Mutex
	idle     []*enumerate.Engine
	// raced is set by the first RaceOrders call on the plan, and on the
	// plan a race returns: a plan races at most once.
	raced atomic.Bool
}

// Preprocess runs the preprocessing half of the pipeline — filtering
// (paper Algorithm 1 line 1), ordering (line 2), auxiliary-structure
// construction over the direction of each query edge that order reads,
// and the symmetry-class setup — and returns the resulting Plan. Every
// layer runs on the caller's goroutine, so a panic in one reaches the
// caller. The int is ignored: the form predates the
// one-goroutine build, and cmd/smatchbench still calls it. A
// configuration routed to an engine gets an engine plan, whose
// "preprocess" span is childless and names the engine. The QFilter
// block layout is built only under the pinned-block policy, the one
// policy that reads it.
func Preprocess(q, g *graph.Graph, cfg Config, _ int) (*Plan, error) {
	if q == nil || g == nil {
		return nil, fmt.Errorf("core: %w", ErrNilGraph)
	}
	if q.NumVertices() == 0 {
		return nil, fmt.Errorf("core: %w", ErrEmptyQuery)
	}
	if !q.IsConnected() {
		return nil, fmt.Errorf("core: %w", ErrDisconnectedQuery)
	}
	if err := cfg.Check(q.NumVertices()); err != nil {
		return nil, err
	}
	plan := &Plan{Query: q, Data: g, Cfg: cfg, Orbit: 1}
	plan.Span = obs.StartSpan("preprocess")
	if e := cfg.engine(); e != "" {
		plan.OrderMethod = e
		plan.Span.SetAttr("engine", e).End()
		return plan, nil
	}

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

	// Step 2: ordering. Every order method reads only the candidate
	// sets, so the order comes before the candidate space, which then
	// holds only the direction of each pair a search along it reads.
	t0 = time.Now()
	phi := cfg.FixedOrder
	orderMethod := "fixed"
	if phi == nil {
		if phi, err = order.Compute(cfg.Order, q, g, cand); err != nil {
			return nil, err
		}
		orderMethod = cfg.Order.String()
	} else if err := order.Validate(q, phi); err != nil {
		return nil, fmt.Errorf("core: fixed order: %w", err)
	}
	plan.OrderTime = time.Since(t0)
	plan.Order = phi
	plan.OrderMethod = orderMethod

	// Step 3: auxiliary structure — CFL's tree-edge index for TreeEdge,
	// every query edge for Intersect. The tree-edge engine reads a
	// vertex's candidates off the pair from its tree parent, so the
	// parent must come first in phi: CFL's order respects CFL's tree,
	// and under an order that maps a vertex before its CFL parent the
	// space is built over phi's own tree.
	tb := time.Now()
	structure := "none"
	switch cfg.Local {
	case enumerate.TreeEdge:
		structure = "tree"
		tree := graph.NewBFSTree(q, filter.Root(filter.CFL, q, g)).Parent
		if !respectsTree(tree, phi) {
			tree = orderTree(q, phi)
		}
		plan.Space = candspace.Build(q, g, cand, tree, phi)
	case enumerate.Intersect:
		structure = "full"
		plan.Space = candspace.Build(q, g, cand, nil, phi)
		if cfg.Kernel == intersect.PolicyBlock {
			plan.Space.MaterializeBlocks()
		}
	}
	plan.BuildTime = time.Since(tb)
	// DP-iso's weights read 𝒜, so they follow the build; they are part
	// of the order and charged to it.
	if cfg.Adaptive && plan.Space != nil {
		tw := time.Now()
		plan.Weights = order.BuildDPWeights(q, plan.Space, phi)
		plan.OrderTime += time.Since(tw)
	}
	if plan.Space != nil {
		plan.MemoryBytes = plan.Space.MemoryBytes()
	} else {
		for _, c := range cand {
			plan.MemoryBytes += int64(len(c)) * 4
		}
	}
	plan.Span.AddChild(obs.NewSpan("order", t0, plan.OrderTime).
		SetAttr("method", orderMethod))
	bs := obs.NewSpan("build", tb, plan.BuildTime).
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

	if cfg.SymmetryBreaking {
		plan.SymClasses = NeighborhoodEquivalenceClasses(q)
		plan.Orbit = OrbitMultiplier(plan.SymClasses)
	}
	plan.Span.End()
	return plan, nil
}

// respectsTree reports whether phi maps every vertex after its parent
// in tree.
func respectsTree(tree, phi []graph.Vertex) bool {
	for i, u := range phi {
		if p := tree[u]; p != graph.NoVertex && !slices.Contains(phi[:i], p) {
			return false
		}
	}
	return true
}

// orderTree is phi's own spanning tree: each vertex's parent is its
// earliest-positioned neighbour.
func orderTree(q *graph.Graph, phi []graph.Vertex) []graph.Vertex {
	tree := make([]graph.Vertex, len(phi))
	for i, u := range phi {
		tree[u] = graph.NoVertex
		for _, p := range phi[:i] {
			if q.HasEdge(p, u) {
				tree[u] = p
				break
			}
		}
	}
	return tree
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
// previously built plan, or an engine plan's solver over its query. The
// plan is read-only: concurrent MatchPlan calls over one shared plan are
// safe. Each takes one engine per worker from the plan's free list, or
// builds one; a sequential run parks its engine there again when it is
// over, so a sequential request on a plan that served one before builds
// no engine. The returned Result carries only enumeration-side fields;
// the preprocessing times live on the plan (a caller reusing a cached
// plan did not pay them).
func MatchPlan(plan *Plan, limits Limits) (*Result, error) {
	return matchPlan(plan, limits, true)
}

// matchPlan is MatchPlan; park says whether a sequential run's engine
// goes back on the plan's free list afterwards. A plan built for one
// request (MatchFresh) does not keep it: most such plans never serve
// another.
func matchPlan(plan *Plan, limits Limits, park bool) (*Result, error) {
	// From here down there is one sink contract, the run form.
	sink, err := limits.runSink()
	if err != nil {
		return nil, err
	}
	limits.OnRun, limits.OnMatch = sink, nil
	cfg := plan.Cfg
	res := &Result{MeanCandidates: plan.MeanCandidates, MemoryBytes: plan.MemoryBytes, Order: plan.Order}
	enumStart := time.Now()
	switch {
	case plan.Empty:
	case cfg.engine() != "":
		if err := solve(plan, limits, res); err != nil {
			return nil, err
		}
	default:
		opts := enumerate.Options{
			Local:           cfg.Local,
			Kernel:          cfg.Kernel,
			FailingSets:     cfg.FailingSets,
			Adaptive:        cfg.Adaptive,
			AdaptiveWeights: plan.Weights,
			VF2PPRules:      cfg.VF2PPRules,
			Homomorphism:    cfg.Homomorphism,
			SymmetryClasses: plan.SymClasses,
			CountTail:       cfg.CountTail,
			MaxEmbeddings:   limits.MaxEmbeddings,
			TimeLimit:       limits.TimeLimit,
			OnRun:           limits.OnRun,
			Cancel:          limits.Cancel,
			Profile:         limits.Profile,
		}
		if limits.Parallel > 1 {
			if err := matchParallel(plan, opts, limits, res); err != nil {
				return nil, err
			}
		} else {
			// Sequential is the engine called directly: no task pool, deque
			// or goroutine stands between a request and its search.
			eng, err := plan.takeEngine(opts)
			if err != nil {
				return nil, err
			}
			// A panic in the search or the sink unwinds past Release: the
			// engine and its marks, some perhaps still set, are dropped.
			stats := *eng.Run()
			eng.Release()
			if park {
				plan.parkEngine(eng)
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
			res.Trace = EnumerateSpan(enumStart, res)
		}
	}
	if limits.Profile {
		res.Explain = explainResult(plan, res)
	}
	return res, nil
}

// maxIdleEngines bounds a plan's free list: four concurrent sequential
// requests on one hot plan find an engine each; a plan serving more than
// that at once builds the rest, as every plan did before it kept any.
const maxIdleEngines = 4

// takeEngine returns an engine over the plan armed with opts' request
// fields: an idle one from the free list, or a new one. The plan-scoped
// fields of opts are the plan's, so a parked engine already has them.
func (p *Plan) takeEngine(opts enumerate.Options) (*enumerate.Engine, error) {
	var e *enumerate.Engine
	p.engineMu.Lock()
	if n := len(p.idle); n > 0 {
		e, p.idle[n-1] = p.idle[n-1], nil
		p.idle = p.idle[:n-1]
	}
	p.engineMu.Unlock()
	if e == nil {
		return enumerate.NewEngine(p.Query, p.Data, p.Cand, p.Space, p.Order, opts)
	}
	e.Rearm(opts)
	return e, nil
}

// parkEngine puts a released engine on the plan's free list, if there
// is room.
func (p *Plan) parkEngine(e *enumerate.Engine) {
	p.engineMu.Lock()
	if len(p.idle) < maxIdleEngines {
		p.idle = append(p.idle, e)
	}
	p.engineMu.Unlock()
}

// EnumerateSpan builds the "enumerate" span from a finished result:
// outcome attributes plus one zero-duration child per parallel worker
// carrying that worker's scheduler tallies. Worker children annotate
// rather than time (they all cover the same wall interval), so the
// sum-of-children invariant holds trivially.
func EnumerateSpan(start time.Time, res *Result) *obs.Span {
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
// MatchFresh.
func Match(q, g *graph.Graph, cfg Config, limits Limits) (*Result, error) {
	start := time.Now()
	plan, err := Preprocess(q, g, cfg, 1)
	if err != nil {
		return nil, err
	}
	return MatchFresh(plan, limits, start)
}

// RunContext runs one search under ctx. run receives limits with the ctx
// deadline folded into TimeLimit, so the engines' own deadline checks
// enforce it, and with a Cancel flag that ctx's end sets, so a cancel
// stops the search cooperatively: a context.AfterFunc registration, or,
// when limits.Cancel is already set, nothing — the caller watches ctx
// and sets that flag itself (the serving layer's flight recorder
// registers a watch only for a request that outlives its watcher's
// tick). When ctx ends before the search
// completes, ctx's error is returned; a TimeLimit expiry that is not the
// ctx deadline still reports a Result with TimedOut set, the paper's
// unsolved-query accounting.
func RunContext(ctx context.Context, limits Limits, run func(Limits) (*Result, error)) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	deadline, hasDeadline := ctx.Deadline()
	if hasDeadline {
		remain := time.Until(deadline)
		if remain <= 0 {
			return nil, context.DeadlineExceeded
		}
		if limits.TimeLimit <= 0 || remain < limits.TimeLimit {
			limits.TimeLimit = remain
		}
	}
	if limits.Cancel == nil {
		var flag atomic.Bool
		stop := context.AfterFunc(ctx, func() { flag.Store(true) })
		defer stop()
		limits.Cancel = &flag
	}
	res, err := run(limits)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// The engine's own clock can expire a folded ctx deadline a
	// scheduler tick before the context's timer fires (ctx.Err() still
	// nil on a busy machine): resolve that race by the wall clock, so a
	// deadline-driven timeout deterministically reports as such.
	if hasDeadline && res.TimedOut && !time.Now().Before(deadline) {
		return nil, context.DeadlineExceeded
	}
	return res, nil
}

// MatchFresh is MatchPlan for the caller that built plan for this very
// query, at start: the result is charged the plan's preprocessing times
// and, when tracing, its "match" span holds the plan's preprocess span
// beside the enumerate span. A caller that reuses a plan did not pay
// those phases and calls MatchPlan. The run's engines are not parked on
// the plan: a plan that serves again builds its engines then.
func MatchFresh(plan *Plan, limits Limits, start time.Time) (*Result, error) {
	res, err := matchPlan(plan, limits, false)
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

// solve runs an engine plan's solver — Glasgow, VF2 or Ullmann — over
// the plan's query into res. The engines emit one embedding at a
// time, so the run sink sees runs of one: with the whole mapping known
// any position can play the open one, and position 0 does.
func solve(plan *Plan, limits Limits, res *Result) error {
	var onMatch func([]uint32) bool
	if sink := limits.OnRun; sink != nil {
		onMatch = func(m []uint32) bool { return sink(m, 0, m[:1]) == 1 }
	}
	q, g := plan.Query, plan.Data
	switch {
	case plan.Cfg.UseGlasgow:
		st, err := glasgow.Solve(q, g, glasgow.Options{
			MaxEmbeddings: limits.MaxEmbeddings, TimeLimit: limits.TimeLimit,
			OnMatch: onMatch, Parallel: limits.Parallel, Cancel: limits.Cancel,
		})
		if err != nil {
			return err
		}
		res.Embeddings, res.Nodes, res.TimedOut, res.LimitHit, res.EnumTime =
			st.Embeddings, st.Nodes, st.TimedOut, st.LimitHit, st.Duration
		res.MemoryBytes = st.MemoryBytes
	case plan.Cfg.UseVF2:
		st, err := vf2.Solve(q, g, vf2.Options{
			MaxEmbeddings: limits.MaxEmbeddings, TimeLimit: limits.TimeLimit,
			OnMatch: onMatch, Cancel: limits.Cancel,
		})
		if err != nil {
			return err
		}
		res.Embeddings, res.Nodes, res.TimedOut, res.LimitHit, res.EnumTime =
			st.Embeddings, st.Nodes, st.TimedOut, st.LimitHit, st.Duration
	default:
		st, err := ullmann.Solve(q, g, ullmann.Options{
			MaxEmbeddings: limits.MaxEmbeddings, TimeLimit: limits.TimeLimit,
			OnMatch: onMatch, Cancel: limits.Cancel,
		})
		if err != nil {
			return err
		}
		res.Embeddings, res.Nodes, res.TimedOut, res.LimitHit, res.EnumTime =
			st.Embeddings, st.Nodes, st.TimedOut, st.LimitHit, st.Duration
	}
	return nil
}
