package candspace

import (
	"sync"

	"subgraphmatching/internal/graph"
	"subgraphmatching/internal/intersect"
	"subgraphmatching/internal/par"
)

// pairArena is one materialized pair's flat QFilter-style block arena:
// one intersect.FlatBlocks per directed query edge, whose per-candidate
// layouts are offset windows into it, so a layout allocates O(edges)
// objects, not O(candidates). Its offsets are the block counts Build
// recorded (edgeCSR.blocks), so encoding is a single pass over the
// pair's targets, and it happens once, on the first View — the adaptive
// selector's first block pick on the pair, or MaterializeBlocks.
type pairArena struct {
	csr  *edgeCSR
	s    *Space
	once sync.Once
	flat *intersect.FlatBlocks
}

// View returns set i's block view, encoding the arena on first use. Safe
// for concurrent use: the engines of every request sharing a cached plan
// may pick the block kernel on the same pair at once.
func (a *pairArena) View(i int) intersect.BlockView {
	a.encode()
	return a.flat.View(i)
}

// encode encodes the arena unless it already is, and reports whether
// this call did.
func (a *pairArena) encode() (did bool) {
	a.once.Do(func() {
		c := a.csr
		fb := intersect.NewFlatBlocks(c.blocks)
		for i := 0; i+1 < len(c.offsets); i++ {
			fb.EncodeSet(i, c.targets[c.offsets[i]:c.offsets[i+1]])
		}
		a.flat = fb
		a.s.encodedArenas.Add(1)
		a.s.encodedBytes.Add(int64(fb.MemoryBytes()))
		did = true
	})
	return did
}

// PlanBlocks offers the flat block layout to the pairs resolved after
// it, encoding nothing: Build recorded every set's block count, which is
// all the adaptive selector's density test reads, and a pair's arena is
// encoded when a kernel first reads one of its views. Across a serving
// mix the selector picks the block kernel on few pairs, so most arenas
// are never built. Idempotent; not safe to run concurrently with
// readers of the space.
func (s *Space) PlanBlocks() {
	if s.arenas != nil {
		return
	}
	n := 0
	for _, row := range s.edges {
		for _, csr := range row {
			if csr != nil {
				n++
			}
		}
	}
	all := make([]pairArena, n)
	s.arenas = make([][]*pairArena, len(s.edges))
	for u, row := range s.edges {
		s.arenas[u] = make([]*pairArena, len(row))
		for i, csr := range row {
			if csr != nil {
				a := &all[0]
				all = all[1:]
				a.csr, a.s = csr, s
				s.arenas[u][i] = a
			}
		}
	}
}

// MaterializeBlocks is the eager form of PlanBlocks: it offers the
// block layout and encodes every arena now, through the same per-pair
// encoder the first pick runs. A Pair resolved before it ran carries no
// views.
//
// The optional argument is the worker count (absent or ≤ 1 = inline on
// the caller's goroutine), one pair per task; the return value is the
// per-worker work tallies (elements encoded) for par.MakespanBound.
// Arenas are byte-identical at every worker count, and a repeat encodes
// nothing.
func (s *Space) MaterializeBlocks(workers ...int) []uint64 {
	w := 1
	if len(workers) > 0 && workers[0] > 1 {
		w = workers[0]
	}
	s.PlanBlocks()
	var arenas []*pairArena
	for _, row := range s.arenas {
		for _, a := range row {
			if a != nil {
				arenas = append(arenas, a)
			}
		}
	}
	tally := make([]uint64, w)
	par.Accumulate(tally, par.Run(w, len(arenas), func(_, i int) uint64 {
		if !arenas[i].encode() {
			return 0
		}
		return uint64(len(arenas[i].csr.targets))
	}))
	return tally
}

// HasBlocks reports whether the block layout is offered (PlanBlocks or
// MaterializeBlocks has run).
func (s *Space) HasBlocks() bool { return s.arenas != nil }

// EncodedBlocks returns how many pair arenas have been encoded so far
// and their bytes: all of them after MaterializeBlocks, and under
// PlanBlocks those the searches over the space picked the block kernel
// on.
func (s *Space) EncodedBlocks() (arenas int, bytes int64) {
	return int(s.encodedArenas.Load()), s.encodedBytes.Load()
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

// BlockStats aggregates the offered block layout: materialized
// adjacency sets, total 64-wide blocks, and total elements. elems/blocks
// is the density the adaptive kernel selector keys on. It is read from
// the block counts, whether or not any arena is encoded; all zeros
// while the layout is not offered.
func (s *Space) BlockStats() (sets, blocks, elems int) {
	for _, row := range s.arenas {
		for _, a := range row {
			if a == nil {
				continue
			}
			n := len(a.csr.offsets) - 1
			sets += n
			blocks += int(a.csr.blocks[n])
			elems += len(a.csr.targets)
		}
	}
	return sets, blocks, elems
}

// BlockMemoryBytes returns the footprint of the offered block layout
// with every arena encoded — exact from the block counts, and the same
// before and after any arena is encoded, so a cached plan's charge does
// not move (0 while the layout is not offered). Reported separately
// from MemoryBytes, which keeps the paper's candidate-set + CSR
// accounting.
func (s *Space) BlockMemoryBytes() int64 {
	var b int64
	for _, row := range s.arenas {
		for _, a := range row {
			if a != nil {
				n := len(a.csr.blocks)
				b += int64(n)*4 + int64(a.csr.blocks[n-1])*12
			}
		}
	}
	return b
}
