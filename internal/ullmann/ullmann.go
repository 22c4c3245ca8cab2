// Package ullmann implements Ullmann's 1976 subgraph isomorphism
// algorithm, the earliest entry in the paper's Table 1: a candidate
// matrix per query vertex, full refinement to a fix point at every
// search node, and assignment in a static query-vertex order. It is the
// historical baseline every modern algorithm improves on; the refinement
// it repeats per node is exactly the paper's Filtering Rule 3.1 (the
// STEADY condition) applied eagerly during the search.
package ullmann

import (
	"fmt"
	"sync/atomic"
	"time"

	"subgraphmatching/internal/bitset"
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

// Solve finds all subgraph isomorphisms from q to g.
func Solve(q, g *graph.Graph, opts Options) (*Stats, error) {
	if q.NumVertices() == 0 {
		return &Stats{}, nil
	}
	if !q.IsConnected() {
		return nil, fmt.Errorf("ullmann: query graph must be connected")
	}
	s := &solver{q: q, g: g, opts: opts, stats: &Stats{}}
	s.init()
	start := time.Now()
	if opts.TimeLimit > 0 {
		s.deadline = start.Add(opts.TimeLimit)
	}
	if s.refine(s.rows[0]) {
		s.search(0)
	}
	s.stats.Duration = time.Since(start)
	return s.stats, nil
}

type solver struct {
	q, g  *graph.Graph
	opts  Options
	stats *Stats

	order      []graph.Vertex  // query vertices by descending degree (classic heuristic)
	rows       [][]*bitset.Set // candidate matrix per search level
	assignment []uint32

	deadline time.Time
	ticker   int
	aborted  bool
}

func (s *solver) init() {
	nQ, nG := s.q.NumVertices(), s.g.NumVertices()
	// Static order: descending degree, id tie-break.
	s.order = make([]graph.Vertex, nQ)
	for i := range s.order {
		s.order[i] = graph.Vertex(i)
	}
	for i := 1; i < nQ; i++ {
		u := s.order[i]
		j := i - 1
		for j >= 0 && s.q.Degree(s.order[j]) < s.q.Degree(u) {
			s.order[j+1] = s.order[j]
			j--
		}
		s.order[j+1] = u
	}

	s.rows = make([][]*bitset.Set, nQ+1)
	for lvl := range s.rows {
		s.rows[lvl] = make([]*bitset.Set, nQ)
		for u := range s.rows[lvl] {
			s.rows[lvl][u] = bitset.New(nG)
		}
	}
	// Level-0 matrix: label and degree admissibility.
	for u := 0; u < nQ; u++ {
		uu := graph.Vertex(u)
		for _, v := range s.g.VerticesWithLabel(s.q.Label(uu)) {
			if s.g.Degree(v) >= s.q.Degree(uu) {
				s.rows[0][u].Set(v)
			}
		}
	}
	s.assignment = make([]uint32, nQ)
}

// refine iterates Ullmann's condition to a fix point: candidate v of u
// survives only if every neighbor u' of u has a candidate among v's
// neighbors. Returns false if some row empties.
func (s *solver) refine(rows []*bitset.Set) bool {
	for changed := true; changed; {
		changed = false
		for u := 0; u < s.q.NumVertices(); u++ {
			uu := graph.Vertex(u)
			row := rows[u]
			var remove []uint32
			row.ForEach(func(v uint32) bool {
				for _, un := range s.q.Neighbors(uu) {
					supported := false
					for _, vn := range s.g.Neighbors(v) {
						if rows[un].Contains(vn) {
							supported = true
							break
						}
					}
					if !supported {
						remove = append(remove, v)
						return true
					}
				}
				return true
			})
			for _, v := range remove {
				row.Clear(v)
				changed = true
			}
			if !row.Any() {
				return false
			}
		}
	}
	return true
}

func (s *solver) enterNode() bool {
	s.stats.Nodes++
	s.ticker++
	if s.ticker >= 1<<10 {
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

// search assigns s.order[depth] from the level-depth matrix, refining
// after every tentative assignment (Ullmann's depth-first search with
// refinement).
func (s *solver) search(depth int) bool {
	if !s.enterNode() {
		return false
	}
	if depth == s.q.NumVertices() {
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
	u := s.order[depth]
	cur, next := s.rows[depth], s.rows[depth+1]
	cont := true
	cur[u].ForEach(func(v uint32) bool {
		// Tentatively fix u -> v: copy the matrix, shrink u's row to
		// {v}, remove v everywhere else (injectivity), refine.
		for i := 0; i < s.q.NumVertices(); i++ {
			next[i].CopyFrom(cur[i])
			if i != int(u) {
				next[i].Clear(v)
				if !next[i].Any() {
					return true // some row emptied: try the next v
				}
			}
		}
		next[u].Reset()
		next[u].Set(v)
		if !s.refine(next) {
			return true
		}
		s.assignment[u] = v
		if !s.search(depth + 1) {
			cont = false
			return false
		}
		return true
	})
	return cont
}
