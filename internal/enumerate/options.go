// Package enumerate implements the generic backtracking enumeration of
// the paper's Algorithm 1, with pluggable local-candidate computation
// (Algorithms 2-5), DP-iso's adaptive vertex selection, and the
// failing-sets pruning optimization of Section 3.4.
package enumerate

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"subgraphmatching/internal/graph"
	"subgraphmatching/internal/intersect"
)

// LocalCandidates selects how LC(u, M) is computed at each search node
// (paper Section 3.3).
type LocalCandidates uint8

const (
	// Direct is Algorithm 2 (QuickSI/RI): iterate the data neighbors of
	// the vertex mapped to u's parent, checking LDF and backward edges.
	Direct LocalCandidates = iota
	// Scan is Algorithm 3 (GraphQL): iterate the whole candidate set
	// C(u), checking every backward edge with binary searches.
	Scan
	// TreeEdge is Algorithm 4 (CFL): retrieve candidates adjacent to the
	// parent's mapping from the tree-edge auxiliary structure, then
	// verify the remaining backward edges with binary searches.
	TreeEdge
	// Intersect is Algorithm 5 (CECI/DP-iso): intersect the auxiliary
	// adjacency lists of all backward neighbors, with the kernel
	// Options.Kernel selects (PolicyBlock is Figure 10's QFilter arm).
	Intersect
)

var localNames = map[LocalCandidates]string{
	Direct: "direct", Scan: "scan", TreeEdge: "tree-edge", Intersect: "intersect",
}

func (l LocalCandidates) String() string {
	if s, ok := localNames[l]; ok {
		return s
	}
	return fmt.Sprintf("LocalCandidates(%d)", l)
}

// ErrUnsupported marks a configuration tuple the engine cannot run. Its
// text names the constraint the tuple breaks.
var ErrUnsupported = errors.New("unsupported configuration")

// MaxFailingSetVertices is the largest query failing sets support: a
// failing set is one 64-bit mask over the query's vertices.
const MaxFailingSetVertices = 64

// CheckOptions is the one list of the constraints between the engine's
// plan-scoped options, for a query of n vertices:
//   - failing sets support at most 64 query vertices;
//   - adaptive ordering requires Intersect local candidates;
//   - VF2++ rules require Direct local candidates;
//   - homomorphism mode takes neither symmetry classes nor VF2++ rules.
//
// NewEngine checks them, and so does core's Preprocess before it filters,
// so a tuple that can be planned can also be run. A refusal wraps
// ErrUnsupported.
func CheckOptions(n int, opts Options) error {
	var broken string
	switch {
	case opts.FailingSets && n > MaxFailingSetVertices:
		broken = fmt.Sprintf("failing sets support at most %d query vertices, got %d", MaxFailingSetVertices, n)
	case opts.Adaptive && opts.Local != Intersect:
		broken = fmt.Sprintf("adaptive ordering requires intersection-based local candidates, got %v", opts.Local)
	case opts.VF2PPRules && opts.Local != Direct:
		broken = fmt.Sprintf("VF2++ rules require direct local candidates, got %v", opts.Local)
	case opts.Homomorphism && (len(opts.SymmetryClasses) > 0 || opts.VF2PPRules):
		broken = "homomorphism mode is incompatible with symmetry breaking and VF2++ rules"
	default:
		return nil
	}
	return fmt.Errorf("enumerate: %w: %s", ErrUnsupported, broken)
}

// Options configures a single enumeration run.
type Options struct {
	// Local selects the local candidate computation method.
	Local LocalCandidates

	// Kernel selects how the pairwise intersection kernel is chosen in
	// the Intersect local-candidate method: by the size-ratio switch (the
	// zero value) or pinned to one static kernel.
	Kernel intersect.Policy

	// FailingSets enables DP-iso's failing-sets pruning. Requires the
	// query to have at most 64 vertices. Prunes nothing under
	// VF2PPRules, whose cutoff reads every mapped vertex.
	FailingSets bool

	// Adaptive enables DP-iso's dynamic vertex selection: the order phi
	// passed to Run is interpreted as the BFS order delta defining the
	// query DAG, and at each node the engine picks the extendable vertex
	// with the smallest estimated cost. Requires Local == Intersect.
	Adaptive bool

	// AdaptiveWeights optionally supplies DP-iso's path-count weight
	// array, indexed [queryVertex][candidateIndex]. When nil the
	// extendable vertex with the fewest local candidates is selected.
	AdaptiveWeights [][]float64

	// VF2PPRules enables VF2++'s extra label-count cutoff rules
	// (Section 3.3.1). Requires Local == Direct.
	VF2PPRules bool

	// Homomorphism drops the injectivity requirement, finding subgraph
	// homomorphisms instead of isomorphisms — the default semantics of
	// the WCOJ-based systems the paper contrasts with (Section 2.2).
	Homomorphism bool

	// CountTail counts the embeddings below the independent tail of phi
	// instead of enumerating them, on runs with no sink (OnRun == nil):
	// see tail.go for which suffix that is and how it is counted. It
	// changes Stats.Nodes — the tail's first depth is one node per
	// partial embedding that reaches it, and the positions below it are
	// none — and nothing else. Adaptive orders and VF2PPRules have no
	// tail.
	CountTail bool

	// Within, when set under Direct, keeps LC(u) to the data vertices
	// whose bit is set in Within[u] — u's candidate set C(u) as a bitmap
	// over V(G) — and drops Direct's label and degree tests, which C(u)
	// has passed. Direct's LC is then Intersect's, C(u) ∩ N(M(u′)) over
	// u's backward neighbours u′, in the same ascending order, so both
	// search the same tree node for node, and no 𝒜 is needed. Only
	// core's order race sets it; other methods ignore it.
	Within [][]uint64

	// SymmetryClasses lists groups of interchangeable query vertices
	// (same label, identical neighborhoods modulo each other). Within a
	// class the engine enforces increasing data-vertex ids, enumerating
	// one canonical representative per orbit; the caller multiplies
	// counts by the product of class-size factorials. Incompatible with
	// Homomorphism.
	SymmetryClasses [][]graph.Vertex

	// MaxEmbeddings stops the search after this many embeddings
	// (0 = unlimited). The paper's experiments use 1e5.
	MaxEmbeddings uint64

	// TimeLimit bounds the wall-clock enumeration time (0 = unlimited).
	// The paper's experiments use five minutes.
	TimeLimit time.Duration

	// OnRun, when non-nil, receives the embeddings a leaf run at a time:
	// mapping (indexed by query vertex) with position u open, completed
	// in emission order by each data vertex of vs — len(vs) embeddings
	// that share every other position. The sink may write mapping[u];
	// both slices are the engine's and valid only during the call. It
	// returns how many of vs it took, in order; fewer than len(vs) stops
	// the search, and only the taken ones count in Stats.
	OnRun func(mapping []uint32, u graph.Vertex, vs []uint32) (taken int)

	// MaxRun, when positive, shortens the runs the last level hands over
	// (and accounts in one step) to at most this many embeddings; 0
	// leaves them as long as the level's admissible candidates, the
	// embedding cap and timeCheckInterval allow. Only the parallel
	// runner's capped count sets it (core.cappedCountRun has the why).
	MaxRun int

	// MaxNodes, when positive, stops the search at the first poll that
	// finds at least this many nodes searched, and sets
	// Stats.OverBudget. The engine polls every timeCheckInterval nodes,
	// and once more where the budget runs out, so a search stops within
	// one leaf run of it. Only core's order race sets it: an alternative
	// order stops once it has searched what the best order needed.
	MaxNodes uint64

	// Cancel, when non-nil, is polled periodically; setting it to true
	// stops the search cooperatively. Used by the parallel runner so a
	// worker that hits the global cap can stop its siblings.
	Cancel *atomic.Bool

	// Profile collects per-depth search statistics into Stats.Profile.
	// Adds a small constant overhead per node.
	Profile bool

	// Donor, when non-nil, lets a parallel scheduler split the running
	// search to feed its idle workers (see Donor). Nil on sequential runs.
	Donor *Donor
}

// Donor is how a running search hands work to idle workers. While *Idle
// is positive, each interior search node offers Give the unexplored
// candidates of the shallowest open level of the search — below the
// positions the task pinned, down to the node itself, which keeps its
// first candidate: prefix is the data vertices mapped above that level
// in position order, rest the level's remaining candidates as data
// vertices. Both slices are the engine's and valid only during the call.
// If Give reports true the engine leaves rest to whoever runs the
// prefixes prefix+c; if false it carries on as if it had not asked.
type Donor struct {
	Idle *atomic.Int32
	Give func(prefix, rest []uint32) bool
}

// Stats reports the outcome of an enumeration run.
type Stats struct {
	// Embeddings is the number of matches found (capped by
	// MaxEmbeddings).
	Embeddings uint64
	// Nodes is the number of search-tree nodes explored (recursive
	// calls of the Enumerate procedure). Under CountTail a node at the
	// tail's first depth counts its completions and is the last node on
	// its path.
	Nodes uint64
	// TimedOut reports whether the time limit fired; per the paper's
	// methodology such a query counts as unsolved and its enumeration
	// time is recorded as the limit.
	TimedOut bool
	// LimitHit reports whether MaxEmbeddings stopped the search.
	LimitHit bool
	// OverBudget reports whether MaxNodes stopped the search.
	OverBudget bool
	// Duration is the wall-clock enumeration time.
	Duration time.Duration
	// Kernels tallies the pairwise intersection-kernel executions by
	// kernel — the run's kernel mix under the configured Options.Kernel
	// policy. All zeros for the non-intersection local-candidate
	// methods.
	Kernels intersect.KernelStats
	// Profile holds per-depth search statistics when Options.Profile
	// was set.
	Profile *SearchProfile
}

// Solved reports whether the search ran to completion or reached the
// embedding cap — i.e. it did not time out.
func (s *Stats) Solved() bool { return !s.TimedOut }
