// Package vf2 implements the classic VF2 algorithm (Cordella et al.,
// TPAMI 2004) adapted to the paper's problem: non-induced subgraph
// isomorphism on vertex-labeled undirected graphs. VF2 is the baseline
// that VF2++ claims to outperform significantly (paper Section 1); it is
// provided so that claim can be reproduced.
//
// The state-space search maintains the mapped cores and the terminal
// sets T1 (unmapped query vertices adjacent to the core) and T2 (ditto
// for data vertices). Candidate pairs take the smallest-id vertex of T1
// against every vertex of T2, and feasibility combines label equality,
// backward-edge consistency, and the monomorphism-safe lookahead rules
// |N(u) ∩ T1| <= |N(v) ∩ T2| and |N(u) \ M| <= |N(v) \ M|. (The original
// paper's equality-based rules target induced isomorphism; for
// subgraph monomorphism only the <= direction is sound.)
package vf2

import (
	"fmt"
	"sync/atomic"
	"time"

	"subgraphmatching/internal/graph"
)

// Options configures a Solve call.
type Options struct {
	// MaxEmbeddings stops the search after this many matches (0 =
	// unlimited).
	MaxEmbeddings uint64
	// TimeLimit bounds the wall-clock search time (0 = unlimited).
	TimeLimit time.Duration
	// OnMatch, when non-nil, receives each embedding (indexed by query
	// vertex; the slice is reused). Returning false aborts the search,
	// and the embedding it declined is not counted.
	OnMatch func(mapping []uint32) bool
	// Cancel, when non-nil, is polled periodically; setting it to true
	// stops the search cooperatively (not reported as a timeout).
	Cancel *atomic.Bool
}

// Stats reports the outcome of a Solve call.
type Stats struct {
	Embeddings uint64
	Nodes      uint64
	TimedOut   bool
	LimitHit   bool
	Duration   time.Duration
}

// Solved reports whether the search completed or reached the cap.
func (s *Stats) Solved() bool { return !s.TimedOut }

// Solve finds all subgraph isomorphisms from q to g with the VF2 state
// space search.
func Solve(q, g *graph.Graph, opts Options) (*Stats, error) {
	if q.NumVertices() == 0 {
		return &Stats{}, nil
	}
	if !q.IsConnected() {
		return nil, fmt.Errorf("vf2: query graph must be connected")
	}
	s := &state{q: q, g: g, opts: opts, stats: &Stats{}}
	s.init()
	start := time.Now()
	if opts.TimeLimit > 0 {
		s.deadline = start.Add(opts.TimeLimit)
	}
	s.match(0)
	s.stats.Duration = time.Since(start)
	return s.stats, nil
}

type state struct {
	q, g  *graph.Graph
	opts  Options
	stats *Stats

	// core1[u] = data vertex mapped to u (NoVertex if unmapped);
	// core2[v] = query vertex mapped to v.
	core1 []uint32
	core2 []graph.Vertex

	// adjDepth1[u] > 0 iff unmapped query vertex u is adjacent to the
	// core (the membership count defining T1); adjDepth2 likewise for
	// data vertices.
	adjDepth1 []int32
	adjDepth2 []int32

	deadline time.Time
	ticker   int
	aborted  bool
}

func (s *state) init() {
	nQ, nG := s.q.NumVertices(), s.g.NumVertices()
	s.core1 = make([]uint32, nQ)
	s.core2 = make([]graph.Vertex, nG)
	for i := range s.core1 {
		s.core1[i] = ^uint32(0)
	}
	for i := range s.core2 {
		s.core2[i] = graph.NoVertex
	}
	s.adjDepth1 = make([]int32, nQ)
	s.adjDepth2 = make([]int32, nG)
}

func (s *state) enterNode() bool {
	s.stats.Nodes++
	s.ticker++
	if s.ticker >= 1<<12 {
		s.ticker = 0
		if s.opts.Cancel != nil && s.opts.Cancel.Load() {
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

// nextQueryVertex picks the candidate query vertex for this depth: the
// smallest-id member of T1, or the smallest-id unmapped vertex when the
// core is empty.
func (s *state) nextQueryVertex() graph.Vertex {
	bestT := graph.NoVertex
	for u := 0; u < s.q.NumVertices(); u++ {
		if s.core1[u] != ^uint32(0) {
			continue
		}
		if s.adjDepth1[u] > 0 {
			return graph.Vertex(u) // smallest-id T1 member
		}
		if bestT == graph.NoVertex {
			bestT = graph.Vertex(u)
		}
	}
	return bestT
}

// feasible applies VF2's rules for the pair (u, v).
func (s *state) feasible(u graph.Vertex, v uint32) bool {
	if s.q.Label(u) != s.g.Label(v) {
		return false
	}
	// Backward consistency: every mapped neighbor of u must map to a
	// neighbor of v. (Monomorphism: no converse requirement.)
	for _, un := range s.q.Neighbors(u) {
		if w := s.core1[un]; w != ^uint32(0) {
			if !s.g.HasEdge(w, v) {
				return false
			}
		}
	}
	// Lookahead: count u's unmapped neighbors split by terminal
	// membership, and v's likewise.
	var t1, rest1 int
	for _, un := range s.q.Neighbors(u) {
		if s.core1[un] != ^uint32(0) {
			continue
		}
		rest1++
		if s.adjDepth1[un] > 0 {
			t1++
		}
	}
	var t2, rest2 int
	for _, vn := range s.g.Neighbors(v) {
		if s.core2[vn] != graph.NoVertex {
			continue
		}
		rest2++
		if s.adjDepth2[vn] > 0 {
			t2++
		}
	}
	return t1 <= t2 && rest1 <= rest2
}

// addPair extends the state with (u, v).
func (s *state) addPair(u graph.Vertex, v uint32) {
	s.core1[u] = v
	s.core2[v] = u
	for _, un := range s.q.Neighbors(u) {
		s.adjDepth1[un]++
	}
	for _, vn := range s.g.Neighbors(v) {
		s.adjDepth2[vn]++
	}
}

// removePair undoes addPair.
func (s *state) removePair(u graph.Vertex, v uint32) {
	for _, un := range s.q.Neighbors(u) {
		s.adjDepth1[un]--
	}
	for _, vn := range s.g.Neighbors(v) {
		s.adjDepth2[vn]--
	}
	s.core1[u] = ^uint32(0)
	s.core2[v] = graph.NoVertex
}

// match is the VF2 recursion over core sizes.
func (s *state) match(depth int) bool {
	if !s.enterNode() {
		return false
	}
	if depth == s.q.NumVertices() {
		if s.opts.OnMatch != nil && !s.opts.OnMatch(s.core1) {
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
	u := s.nextQueryVertex()
	if u == graph.NoVertex {
		return true
	}
	useT2 := depth > 0
	for v := 0; v < s.g.NumVertices(); v++ {
		vv := uint32(v)
		if s.core2[v] != graph.NoVertex {
			continue
		}
		if useT2 && s.adjDepth2[v] == 0 {
			continue // candidate pairs come from T2 once the core is non-empty
		}
		if !s.feasible(u, vv) {
			continue
		}
		s.addPair(u, vv)
		cont := s.match(depth + 1)
		s.removePair(u, vv)
		if !cont {
			return false
		}
	}
	return true
}
