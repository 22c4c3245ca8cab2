package candspace

import (
	"subgraphmatching/internal/intersect"
)

// MaterializeBlocks builds the flat QFilter-style block layout that
// Figure 10's pinned-block policy intersects with: one
// intersect.FlatBlocks arena per materialized pair, whose per-candidate
// layouts are offset windows into it, so the layout allocates O(edges)
// objects, not O(candidates). A pair's arena is built in two passes over
// its targets — count each set's blocks, then encode every set into its
// exact range. A Pair resolved before it ran carries no views.
// Idempotent; not safe to run concurrently with readers of the space.
func (s *Space) MaterializeBlocks() {
	if s.flat != nil {
		return
	}
	s.flat = make([][]*intersect.FlatBlocks, len(s.edges))
	for u, row := range s.edges {
		s.flat[u] = make([]*intersect.FlatBlocks, len(row))
		for i, csr := range row {
			if csr != nil {
				s.flat[u][i] = csr.encodeBlocks()
			}
		}
	}
}

// encodeBlocks counts the blocks of each of the CSR's sets and encodes
// them into one arena of exactly that size.
func (c *edgeCSR) encodeBlocks() *intersect.FlatBlocks {
	n := len(c.offsets) - 1
	offsets := make([]int32, n+1)
	for i := 0; i < n; i++ {
		offsets[i+1] = offsets[i] + int32(intersect.CountBlocks(c.targets[c.offsets[i]:c.offsets[i+1]]))
	}
	fb := intersect.NewFlatBlocks(offsets)
	for i := 0; i < n; i++ {
		fb.EncodeSet(i, c.targets[c.offsets[i]:c.offsets[i+1]])
	}
	return fb
}

// HasBlocks reports whether MaterializeBlocks has run.
func (s *Space) HasBlocks() bool { return s.flat != nil }

// BlockStats aggregates the flat block layout: materialized adjacency
// sets, total 64-wide blocks, and total encoded elements; all zeros
// before MaterializeBlocks.
func (s *Space) BlockStats() (sets, blocks, elems int) {
	for _, row := range s.flat {
		for _, fb := range row {
			if fb != nil {
				sets += fb.NumSets()
				blocks += fb.NumBlocks()
				elems += fb.CountAll()
			}
		}
	}
	return sets, blocks, elems
}

// BlockMemoryBytes returns the flat block layout's memory footprint
// (0 before MaterializeBlocks). Reported separately from MemoryBytes,
// which keeps the paper's candidate-set + CSR accounting.
func (s *Space) BlockMemoryBytes() int64 {
	var b int64
	for _, row := range s.flat {
		for _, fb := range row {
			if fb != nil {
				b += int64(fb.MemoryBytes())
			}
		}
	}
	return b
}
