// Package glasgow implements a constraint-programming subgraph matching
// solver in the style of the Glasgow subgraph solver (paper Section 3.5):
// query vertices are variables, query edges are constraints, and the
// domains are bitsets over the data vertices.
//
// Key behaviours reproduced from the paper's description:
//
//   - Domains are initialized from labels, degrees and neighbor-degree
//     sequences; no edges between candidates are maintained.
//   - No matching order is computed in advance; at each search node the
//     unassigned variable with the smallest domain is picked (MRV).
//   - Values are tried in descending data-vertex degree order, the
//     solution-biased heuristic of a solver optimized for decision
//     problems.
//   - Assignments propagate by forward checking over bitset domains plus
//     all-different value removal.
//   - The solver is memory-hungry: it materializes an adjacency bitset
//     per data vertex (O(|V(G)|²) bits) and a domain trail per search
//     level. A configurable budget turns the paper's "GLW runs out of
//     memory on large datasets" into a clean ErrOutOfMemory.
package glasgow

import (
	"errors"
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"subgraphmatching/internal/bitset"
	"subgraphmatching/internal/graph"
)

// ErrOutOfMemory is returned when the estimated working-set size exceeds
// the configured budget. The paper reports exactly this failure mode for
// Glasgow on all but the smallest datasets.
var ErrOutOfMemory = errors.New("glasgow: memory budget exceeded")

// DefaultMemoryBudget bounds the solver's bitset working set.
const DefaultMemoryBudget int64 = 1 << 30 // 1 GiB

// Options configures a Solve call.
type Options struct {
	// MaxEmbeddings stops the search after this many matches (0 =
	// unlimited).
	MaxEmbeddings uint64
	// TimeLimit bounds the wall-clock search time (0 = unlimited).
	TimeLimit time.Duration
	// MemoryBudget bounds the bitset working set in bytes; 0 selects
	// DefaultMemoryBudget.
	MemoryBudget int64
	// OnMatch, when non-nil, receives each embedding (indexed by query
	// vertex; the slice is reused). Returning false aborts the search,
	// and the embedding it declined is not counted.
	// Under parallel execution calls are serialized but unordered.
	OnMatch func(mapping []uint32) bool
	// Parallel splits the search across this many goroutines by
	// partitioning the first branching variable's domain (pGlasgow's
	// scheme); 0 or 1 = sequential. The memory budget accounts for the
	// per-worker domain trails.
	Parallel int
	// Cancel, when non-nil, is polled periodically; setting it to true
	// stops the search cooperatively (not reported as a timeout). Under
	// parallel execution the same flag doubles as the workers' shared
	// stop signal, so hand each run its own flag.
	Cancel *atomic.Bool
}

// Stats reports the outcome of a Solve call.
type Stats struct {
	Embeddings  uint64
	Nodes       uint64
	TimedOut    bool
	LimitHit    bool
	Duration    time.Duration
	MemoryBytes int64 // bitset working set actually allocated
}

// Solved reports whether the search ran to completion or hit the
// embedding cap.
func (s *Stats) Solved() bool { return !s.TimedOut }

// Solve finds all subgraph isomorphisms from q to g.
func Solve(q, g *graph.Graph, opts Options) (*Stats, error) {
	nQ, nG := q.NumVertices(), g.NumVertices()
	if nQ == 0 {
		return &Stats{}, nil
	}
	if !q.IsConnected() {
		return nil, fmt.Errorf("glasgow: query graph must be connected")
	}
	budget := opts.MemoryBudget
	if budget == 0 {
		budget = DefaultMemoryBudget
	}
	workers := opts.Parallel
	if workers < 1 {
		workers = 1
	}
	words := int64((nG + 63) / 64)
	// Working set: adjacency bitsets (nG rows, shared) + one domain
	// trail ((nQ+1) levels of nQ domains) per worker.
	need := words*8*int64(nG) + words*8*int64(nQ)*int64(nQ+1)*int64(workers)
	if need > budget {
		return nil, fmt.Errorf("%w: need %d bytes, budget %d", ErrOutOfMemory, need, budget)
	}

	s := &solver{q: q, g: g, opts: opts, stats: &Stats{MemoryBytes: need}, cancel: opts.Cancel}
	s.buildAdjacency()
	if !s.initDomains() {
		s.stats.Duration = 0
		return s.stats, nil // some variable has an empty domain: no matches
	}
	start := time.Now()
	if workers > 1 {
		solveParallel(s, workers)
		s.stats.Duration = time.Since(start)
		return s.stats, nil
	}
	if opts.TimeLimit > 0 {
		s.deadline = start.Add(opts.TimeLimit)
	}
	s.search(0)
	s.stats.Duration = time.Since(start)
	return s.stats, nil
}

type solver struct {
	q, g  *graph.Graph
	opts  Options
	stats *Stats

	adj     []*bitset.Set   // adjacency bitset per data vertex
	qadj    [][]bool        // query adjacency matrix
	domains [][]*bitset.Set // trail: domains[level][queryVertex]

	assigned   []bool
	assignment []uint32
	byDegree   [][]uint32 // scratch for value ordering per level

	deadline time.Time
	ticker   int
	aborted  bool
	cancel   *atomicBool // optional cooperative stop (parallel workers)
}

func (s *solver) buildAdjacency() {
	nG := s.g.NumVertices()
	s.adj = make([]*bitset.Set, nG)
	for v := 0; v < nG; v++ {
		b := bitset.New(nG)
		for _, w := range s.g.Neighbors(graph.Vertex(v)) {
			b.Set(w)
		}
		s.adj[v] = b
	}
}

// initDomains computes the level-0 domains from labels, degrees and
// neighbor degree sequences, and reports whether all are non-empty.
func (s *solver) initDomains() bool {
	nQ, nG := s.q.NumVertices(), s.g.NumVertices()
	s.domains = make([][]*bitset.Set, nQ+1)
	for lvl := range s.domains {
		s.domains[lvl] = make([]*bitset.Set, nQ)
		for u := range s.domains[lvl] {
			s.domains[lvl][u] = bitset.New(nG)
		}
	}
	s.assigned = make([]bool, nQ)
	s.assignment = make([]uint32, nQ)
	s.byDegree = make([][]uint32, nQ)
	s.qadj = make([][]bool, nQ)
	for u := 0; u < nQ; u++ {
		s.qadj[u] = make([]bool, nQ)
		for _, un := range s.q.Neighbors(graph.Vertex(u)) {
			s.qadj[u][un] = true
		}
	}

	var qSeq, gSeq []int
	ok := true
	for u := 0; u < nQ; u++ {
		uu := graph.Vertex(u)
		qSeq = s.q.NeighborDegreesDescending(uu, qSeq)
		d := s.domains[0][u]
		any := false
		for _, v := range s.g.VerticesWithLabel(s.q.Label(uu)) {
			if s.g.Degree(v) < s.q.Degree(uu) {
				continue
			}
			gSeq = s.g.NeighborDegreesDescending(v, gSeq)
			if !dominates(gSeq, qSeq) {
				continue
			}
			d.Set(v)
			any = true
		}
		ok = ok && any
	}
	return ok
}

// dominates reports whether the descending sequence a pointwise covers b:
// a[i] >= b[i] for all i < len(b). Requires len(a) >= len(b).
func dominates(a, b []int) bool {
	if len(a) < len(b) {
		return false
	}
	for i := range b {
		if a[i] < b[i] {
			return false
		}
	}
	return true
}

func (s *solver) enterNode() bool {
	s.stats.Nodes++
	s.ticker++
	if s.ticker >= 1<<12 {
		s.ticker = 0
		if s.cancel != nil && s.cancel.Load() {
			s.aborted = true
			return false
		}
		if !s.deadline.IsZero() && time.Now().After(s.deadline) {
			s.stats.TimedOut = true
			s.aborted = true
			return false
		}
	}
	return true
}

// search explores assignments at the given trail level; domains[level]
// holds the current domains.
func (s *solver) search(level int) bool {
	if !s.enterNode() {
		return false
	}
	// MRV: smallest domain among unassigned variables.
	u := -1
	best := 0
	for i := 0; i < s.q.NumVertices(); i++ {
		if s.assigned[i] {
			continue
		}
		c := s.domains[level][i].Count()
		if u < 0 || c < best {
			u, best = i, c
		}
	}
	if u < 0 {
		// All assigned: report the embedding.
		if s.opts.OnMatch != nil && !s.opts.OnMatch(s.assignment) {
			s.aborted = true
			return false
		}
		s.stats.Embeddings++
		if s.opts.MaxEmbeddings > 0 && s.stats.Embeddings >= s.opts.MaxEmbeddings {
			s.stats.LimitHit = true
			s.aborted = true
			return false
		}
		return true
	}

	// Value order: descending degree (solution-biased).
	vals := s.byDegree[level%len(s.byDegree)][:0]
	s.domains[level][u].ForEach(func(v uint32) bool {
		vals = append(vals, v)
		return true
	})
	s.byDegree[level%len(s.byDegree)] = vals
	sort.Slice(vals, func(i, j int) bool {
		di, dj := s.g.Degree(vals[i]), s.g.Degree(vals[j])
		if di != dj {
			return di > dj
		}
		return vals[i] < vals[j]
	})

	for _, v := range vals {
		if s.propagate(level, graph.Vertex(u), v) {
			s.assigned[u] = true
			s.assignment[u] = v
			cont := s.search(level + 1)
			s.assigned[u] = false
			if !cont {
				return false
			}
		}
	}
	return true
}

// propagate copies domains[level] to domains[level+1] restricted by the
// assignment u := v: v is removed from every other domain
// (all-different) and the domains of u's query neighbors are intersected
// with v's adjacency bitset (forward checking). It reports whether all
// unassigned domains stay non-empty.
func (s *solver) propagate(level int, u graph.Vertex, v uint32) bool {
	next := s.domains[level+1]
	cur := s.domains[level]
	nQ := s.q.NumVertices()
	for i := 0; i < nQ; i++ {
		if s.assigned[i] || i == int(u) {
			continue
		}
		d := next[i]
		d.CopyFrom(cur[i])
		d.Clear(v)
		if s.qadj[u][i] {
			d.IntersectWith(s.adj[v])
		}
		if !d.Any() {
			return false
		}
	}
	return true
}
