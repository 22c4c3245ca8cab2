// Package enumerate implements the generic backtracking enumeration of
// the paper's Algorithm 1, with pluggable local-candidate computation
// (Algorithms 2-5), DP-iso's adaptive vertex selection, and the
// failing-sets pruning optimization of Section 3.4.
package enumerate

import (
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
	// adjacency lists of all backward neighbors.
	Intersect
	// IntersectBlock is Algorithm 5 using the QFilter-style block layout
	// for the intersections (Figure 10's comparison). The candidate
	// space must have MaterializeBlocks applied.
	IntersectBlock
)

var localNames = map[LocalCandidates]string{
	Direct: "direct", Scan: "scan", TreeEdge: "tree-edge",
	Intersect: "intersect", IntersectBlock: "intersect-block",
}

func (l LocalCandidates) String() string {
	if s, ok := localNames[l]; ok {
		return s
	}
	return fmt.Sprintf("LocalCandidates(%d)", l)
}

// Options configures a single enumeration run.
type Options struct {
	// Local selects the local candidate computation method.
	Local LocalCandidates

	// Kernel selects how the pairwise intersection kernel is chosen in
	// the Intersect local-candidate method: adaptively per call (the
	// zero value) or pinned to one static kernel. IntersectBlock mode
	// always uses the block kernel (the Figure 10 arm) and ignores this
	// field.
	Kernel intersect.Policy

	// FailingSets enables DP-iso's failing-sets pruning. Requires the
	// query to have at most 64 vertices.
	FailingSets bool

	// Adaptive enables DP-iso's dynamic vertex selection: the order phi
	// passed to Run is interpreted as the BFS order delta defining the
	// query DAG, and at each node the engine picks the extendable vertex
	// with the smallest estimated cost. Requires Local == Intersect or
	// IntersectBlock.
	Adaptive bool

	// AdaptiveWeights optionally supplies DP-iso's path-count weight
	// array, indexed [queryVertex][candidateIndex]. When nil the
	// extendable vertex with the fewest local candidates is selected.
	AdaptiveWeights [][]float64

	// VF2PPRules enables VF2++'s extra label-count cutoff rules in
	// Direct mode (Section 3.3.1).
	VF2PPRules bool

	// Homomorphism drops the injectivity requirement, finding subgraph
	// homomorphisms instead of isomorphisms — the default semantics of
	// the WCOJ-based systems the paper contrasts with (Section 2.2).
	Homomorphism bool

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

	// Cancel, when non-nil, is polled periodically; setting it to true
	// stops the search cooperatively. Used by the parallel runner so a
	// worker that hits the global cap can stop its siblings.
	Cancel *atomic.Bool

	// Profile collects per-depth search statistics into Stats.Profile.
	// Adds a small constant overhead per node.
	Profile bool
}

// Stats reports the outcome of an enumeration run.
type Stats struct {
	// Embeddings is the number of matches found (capped by
	// MaxEmbeddings).
	Embeddings uint64
	// Nodes is the number of search-tree nodes explored (recursive
	// calls of the Enumerate procedure).
	Nodes uint64
	// TimedOut reports whether the time limit fired; per the paper's
	// methodology such a query counts as unsolved and its enumeration
	// time is recorded as the limit.
	TimedOut bool
	// LimitHit reports whether MaxEmbeddings stopped the search.
	LimitHit bool
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
