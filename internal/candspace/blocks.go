package candspace

import (
	"subgraphmatching/internal/graph"
	"subgraphmatching/internal/intersect"
	"subgraphmatching/internal/par"
)

// MaterializeBlocks builds the flat QFilter-style block layout for every
// materialized candidate adjacency list, enabling word-parallel
// intersections during enumeration. One intersect.FlatBlocks arena is
// built per directed query edge — the per-candidate layouts are offset
// windows into it, so the whole materialization allocates O(edges)
// objects, not O(candidates). It is idempotent (a repeat returns nil).
//
// The optional argument is the worker count (absent or ≤ 1 = inline on
// the caller's goroutine); the return value is the per-worker work
// tallies (elements scanned, both passes) for par.MakespanBound. The
// two-phase build — count blocks per candidate, prefix-sum into exact
// arenas, then encode into disjoint ranges — needs no synchronization
// and produces byte-identical arenas at every worker count. On one
// worker a task is a pair's whole candidate list.
func (s *Space) MaterializeBlocks(workers ...int) []uint64 {
	if s.flat != nil {
		return nil
	}
	w := 1
	if len(workers) > 0 && workers[0] > 1 {
		w = workers[0]
	}
	type pairRef struct {
		u, pos int
		csr    *edgeCSR
		counts []int32
	}
	directed := 0
	for _, row := range s.edges {
		directed += len(row)
	}
	pairs := make([]pairRef, 0, directed)
	tasks := make([]buildTask, 0, directed)
	s.flat = make([][]*intersect.FlatBlocks, len(s.edges))
	for u, row := range s.edges {
		s.flat[u] = make([]*intersect.FlatBlocks, len(row))
		for i, csr := range row {
			if csr == nil {
				continue
			}
			nCand := len(csr.offsets) - 1
			chunk := nCand
			if w > 1 {
				chunk = buildChunk
			}
			for lo := 0; lo < nCand; lo += chunk {
				tasks = append(tasks, buildTask{pair: len(pairs), lo: lo, hi: min(lo+chunk, nCand)})
			}
			pairs = append(pairs, pairRef{u: u, pos: i, csr: csr, counts: make([]int32, nCand)})
		}
	}
	tally := make([]uint64, w)
	par.Accumulate(tally, par.Run(w, len(tasks), func(_, t int) uint64 {
		task := tasks[t]
		p := pairs[task.pair]
		var n uint64
		for ci := task.lo; ci < task.hi; ci++ {
			set := p.csr.targets[p.csr.offsets[ci]:p.csr.offsets[ci+1]]
			p.counts[ci] = int32(intersect.CountBlocks(set))
			n += uint64(len(set))
		}
		return n
	}))
	for _, p := range pairs {
		s.flat[p.u][p.pos] = intersect.NewFlatBlocks(p.counts)
	}
	par.Accumulate(tally, par.Run(w, len(tasks), func(_, t int) uint64 {
		task := tasks[t]
		p := pairs[task.pair]
		fb := s.flat[p.u][p.pos]
		var n uint64
		for ci := task.lo; ci < task.hi; ci++ {
			set := p.csr.targets[p.csr.offsets[ci]:p.csr.offsets[ci+1]]
			fb.EncodeSet(ci, set)
			n += uint64(len(set))
		}
		return n
	}))
	return tally
}

// HasBlocks reports whether MaterializeBlocks has run.
func (s *Space) HasBlocks() bool { return s.flat != nil }

// AdjacencyView returns the block view of 𝒜[u->u'](v) where candIdx is
// v's index in C(u). The zero view is returned if blocks are not
// materialized, the pair is absent, or candIdx is out of range (e.g. -1
// from CandidateIndex on an empty candidate set).
func (s *Space) AdjacencyView(u, up graph.Vertex, candIdx int) intersect.BlockView {
	if s.flat == nil {
		return intersect.BlockView{}
	}
	pos := s.neighborPos(u, up)
	if pos < 0 {
		return intersect.BlockView{}
	}
	fb := s.flat[u][pos]
	if fb == nil || candIdx < 0 || candIdx >= fb.NumSets() {
		return intersect.BlockView{}
	}
	return fb.View(candIdx)
}

// AdjacencyWithView returns 𝒜[u->u'](v) as both the sorted slice and
// its block view with a single pair lookup — the enumeration hot path's
// accessor. The view is zero when blocks are not materialized; the
// slice is nil under the same conditions as Adjacency.
func (s *Space) AdjacencyWithView(u, up graph.Vertex, candIdx int) ([]uint32, intersect.BlockView) {
	pos := s.neighborPos(u, up)
	if pos < 0 {
		return nil, intersect.BlockView{}
	}
	csr := s.edges[u][pos]
	if csr == nil || candIdx < 0 || candIdx+1 >= len(csr.offsets) {
		return nil, intersect.BlockView{}
	}
	adj := csr.targets[csr.offsets[candIdx]:csr.offsets[candIdx+1]]
	if s.flat == nil {
		return adj, intersect.BlockView{}
	}
	fb := s.flat[u][pos]
	if fb == nil {
		return adj, intersect.BlockView{}
	}
	return adj, fb.View(candIdx)
}

// PairSize returns the total adjacency size of the directed pair
// (u, u') — sum over v∈C(u) of |𝒜[u->u'](v)| — in O(1) from the CSR,
// or 0 when the pair is not materialized. This is the per-edge size
// stat the planner's selectivity model reads.
func (s *Space) PairSize(u, up graph.Vertex) int {
	pos := s.neighborPos(u, up)
	if pos < 0 {
		return 0
	}
	csr := s.edges[u][pos]
	if csr == nil {
		return 0
	}
	return len(csr.targets)
}

// BlockStats aggregates the flat block layout: materialized adjacency
// sets, total 64-wide blocks, and total encoded elements. elems/blocks
// is the density the adaptive kernel selector keys on; all zeros before
// MaterializeBlocks.
func (s *Space) BlockStats() (sets, blocks, elems int) {
	if s.flat == nil {
		return 0, 0, 0
	}
	for _, row := range s.flat {
		for _, fb := range row {
			if fb == nil {
				continue
			}
			sets += fb.NumSets()
			blocks += fb.NumBlocks()
			elems += fb.CountAll()
		}
	}
	return sets, blocks, elems
}

// BlockMemoryBytes returns the flat block layout's memory footprint
// (0 before MaterializeBlocks). Reported separately from MemoryBytes,
// which keeps the paper's candidate-set + CSR accounting.
func (s *Space) BlockMemoryBytes() int64 {
	var b int64
	if s.flat == nil {
		return 0
	}
	for _, row := range s.flat {
		for _, fb := range row {
			if fb != nil {
				b += int64(fb.MemoryBytes())
			}
		}
	}
	return b
}
