// Package candspace implements the auxiliary data structure 𝒜 of the
// paper: for candidate vertex sets C(u), it maintains the edges between
// candidates of adjacent query vertices. For the candidate at position
// i of C(u), with v = C(u)[i],
//
//	𝒜[u->u'](i) = { j : C(u')[j] ∈ N(v) }
//
// — the positions in C(u') of N(v) ∩ C(u'), ascending because C(u') is
// sorted — can be retrieved in O(1) during enumeration. A search that
// has mapped u' to its candidate at position j reads every pair from u'
// at j without looking j up, and C(u')[j] is the data vertex. Two
// variants exist, distinguished by which query edges are materialized:
//
//   - Full: every edge of E(q), as in CECI's compact embedding cluster
//     index and DP-iso's candidate space. Enables the set-intersection
//     local candidate computation (paper Algorithm 5).
//   - Tree: only the spanning-tree edges, as in CFL's compressed path
//     index. Non-tree edges are verified with binary searches during
//     enumeration (paper Algorithm 4).
//
// Given a matching order, either variant keeps one direction per edge,
// earlier vertex to later, which is the only one a search along that
// order reads; without one it keeps both.
package candspace

import (
	"math/bits"
	"slices"

	"subgraphmatching/internal/graph"
	"subgraphmatching/internal/intersect"
)

// Space is the auxiliary structure 𝒜 over a query graph and candidate
// sets. It is immutable after Build.
type Space struct {
	q          *graph.Graph
	candidates [][]uint32 // per query vertex, sorted data vertices

	// For each directed adjacent pair (u, i) where i indexes u's
	// neighbor list, a CSR mapping a position in C(u) to the ascending
	// positions in C(neighbor) of the candidates adjacent to it. nil when
	// the pair is not materialized (a non-tree edge of the tree variant,
	// or the direction the build's order does not read). The headers,
	// the offsets and the targets are each one slab (Build).
	edges [][]*edgeCSR

	// flat mirrors edges with one flat QFilter-style block arena per
	// materialized pair (per-candidate layouts are offset windows into
	// it); nil until MaterializeBlocks runs (blocks.go).
	flat [][]*intersect.FlatBlocks
}

type edgeCSR struct {
	offsets []int32
	targets []uint32
}

// BuildFull materializes both directions of every query edge
// (CECI/DP-iso style): Build with no parent array and no order.
// candidates[u] must be sorted; the slice is retained.
func BuildFull(q *graph.Graph, g *graph.Graph, candidates [][]uint32) *Space {
	return Build(q, g, candidates, nil, nil)
}

// materialized reports whether the query edge {u, up} gets a CSR:
// always for the full variant (parent == nil), only along tree edges
// otherwise.
func materialized(parent []graph.Vertex, u, up graph.Vertex) bool {
	return parent == nil || parent[u] == up || parent[up] == u
}

// appendRanks appends to dst the position in C(u′) of every vertex of
// run (sorted) that C(u′) holds: 𝒜[u->u'] of one candidate as one scan
// of the L(u′) run of its neighbours against words, the bitmap of C(u′),
// whose rank is the popcount prefix before[w/64] plus the bits below w
// in its word. Ascending, since run is sorted and so is C(u′).
func appendRanks(dst []uint32, run []uint32, words []uint64, before []uint32) []uint32 {
	for _, w := range run {
		word, bit := words[w/64], uint64(1)<<(w%64)
		if word&bit != 0 {
			dst = append(dst, before[w/64]+uint32(bits.OnesCount64(word&(bit-1))))
		}
	}
	return dst
}

// Build materializes 𝒜 on the caller's goroutine. With parent == nil
// every query edge is materialized; otherwise only the spanning-tree
// edges given by parent (CFL style). With phi == nil both directions of
// each such edge are kept; with a matching order phi (a permutation of
// V(q)) only 𝒜[u→u′] with u before u′ in phi — the one direction a
// search along phi reads, backward neighbour to later vertex, and under
// a tree that phi respects the parent→child pairs of CFL's CPI.
// candidates[u] must be sorted, and every vertex in it must carry label
// L(u), as every filter's sets do; the slice is retained.
//
// A pair 𝒜[u→u′] is scanned from u: for each candidate v, the
// neighbours of v labelled L(u′) (the label run graph.NLF.Run hands out
// — by the precondition no other neighbour can be in C(u′)) against a
// bitmap of C(u′), whose popcount prefix sums give each target its
// position in C(u′). Scanned pairs are visited grouped by their target
// u′, so one bitmap of C(u′) is set once, serves every u that scans
// towards u′, and is cleared by walking C(u′) again (never a full
// reset), so it goes back to g's free list clear, with the prefix sums
// and the row buffer (graph.Bitmap, graph.Buffer). Without an order,
// 𝒜[u→u′] and 𝒜[u′→u] are one edge set E(C(u), C(u′)) read from its two
// ends, so each edge is scanned once, from the end whose candidates have
// the smaller Σ d(v) (ties: the smaller vertex id), and transposed.
// Every adjacency list is a set that does not depend on how it was
// found, so the CSRs are byte-identical for either scan direction.
//
// The space is allocated at its exact size: every kept pair's offsets
// are windows of one []int32, whose length Σ (|C(u)|+1) over kept pairs
// is known before the scan; the targets accumulate in the row buffer
// and are copied once into one []uint32; the CSR headers are one
// []edgeCSR. A pair's targets window has no capacity beyond its length,
// so MemoryBytes counts both slabs exactly.
func Build(q, g *graph.Graph, candidates [][]uint32, parent, phi []graph.Vertex) *Space {
	n := q.NumVertices()
	both := phi == nil // keep both directions: scan one, transpose into the other
	var pos []int      // position in phi
	if !both {
		pos = make([]int, n)
		for i, u := range phi {
			pos[u] = i
		}
	}
	keep := func(u, up graph.Vertex) bool {
		return materialized(parent, u, up) && (both || pos[u] < pos[up])
	}
	pairs, offsets := 0, 0
	for u := range n {
		for _, up := range q.Neighbors(graph.Vertex(u)) {
			if keep(graph.Vertex(u), up) {
				pairs++
				offsets += len(candidates[u]) + 1
			}
		}
	}
	s := &Space{q: q, candidates: candidates, edges: make([][]*edgeCSR, n)}
	slots := make([]*edgeCSR, 2*q.NumEdges())
	for u := range s.edges {
		d := q.Degree(graph.Vertex(u))
		s.edges[u], slots = slots[:d:d], slots[d:]
	}
	// Headers are handed out in scan order; without phi each scanned
	// pair's header is followed by its transpose's.
	csrs, offs := make([]edgeCSR, pairs), make([]int32, offsets)
	free := csrs
	window := func(u graph.Vertex) *edgeCSR {
		c := &free[0]
		free = free[1:]
		k := len(candidates[u]) + 1
		c.offsets, offs = offs[:k:k], offs[k:]
		return c
	}
	var scanCost []uint64 // Σ d(v) over C(u): what scanning from u reads
	if both {
		scanCost = make([]uint64, n)
		for u := range scanCost {
			for _, v := range candidates[u] {
				scanCost[u] += uint64(g.Degree(v))
			}
		}
	}
	gx := g.NLF()
	// The bitmap, its prefix sums (members below each word) and the
	// scanned targets are per-build scratch from g's free lists; the
	// prefix sums and the targets share one buffer, the targets after
	// the sums (grown apart from them when the plan needs more room).
	// While the scan runs, a scanned pair's offsets index this buffer.
	words := g.Bitmap()
	scratch := slices.Grow(g.Buffer(), len(words))
	before, buf := scratch[:len(words)], scratch[len(words):len(words)]
	for t := range n {
		up := graph.Vertex(t)
		label := q.Label(up)
		ranked := false // the bitmap holds C(up) and before its prefix sums
		for _, u := range q.Neighbors(up) {
			if !keep(u, up) {
				continue
			}
			if both && (scanCost[u] > scanCost[up] || (scanCost[u] == scanCost[up] && u > up)) {
				continue // up's group scans this edge the other way
			}
			if !ranked {
				for _, v := range candidates[up] {
					words[v/64] |= 1 << (v % 64)
				}
				below := uint32(0)
				for i, w := range words {
					before[i] = below
					below += uint32(bits.OnesCount64(w))
				}
				ranked = true
			}
			fwd := window(u)
			fwd.offsets[0] = int32(len(buf))
			for i, v := range candidates[u] {
				buf = appendRanks(buf, gx.Run(v, label), words, before)
				fwd.offsets[i+1] = int32(len(buf))
			}
			s.edges[u][s.neighborPos(u, up)] = fwd
			if both {
				s.edges[up][s.neighborPos(up, u)] = window(up)
			}
		}
		if ranked {
			for _, v := range candidates[up] {
				words[v/64] &^= 1 << (v % 64)
			}
		}
	}
	total := len(buf)
	step := 1
	if both {
		step = 2 // the transposes fill a second half of the slab
	}
	targets := make([]uint32, step*total)
	copy(targets, buf)
	for i := 0; i < len(csrs); i += step {
		fwd := &csrs[i]
		lo, hi := fwd.offsets[0], fwd.offsets[len(fwd.offsets)-1]
		fwd.targets = targets[lo:hi:hi]
		for j := range fwd.offsets {
			fwd.offsets[j] -= lo
		}
		if step == 2 {
			rev := &csrs[i+1]
			rev.targets = targets[int32(total)+lo : int32(total)+hi : int32(total)+hi]
			transpose(fwd, rev)
		}
	}
	g.PutBitmap(words)
	if cap(buf) > cap(scratch) {
		scratch = buf
	}
	g.PutBuffer(scratch)
	return s
}

// transpose fills rev = 𝒜[u′→u], whose offsets (zero) and targets are
// already sized, from fwd = 𝒜[u→u′] by a counting sort on the target
// positions, filling each list with the source positions. Sources are
// visited in ascending order, so every transposed list comes out
// sorted.
func transpose(fwd, rev *edgeCSR) {
	nt := len(rev.offsets) - 1
	for _, r := range fwd.targets {
		rev.offsets[r+1]++
	}
	for r := 0; r < nt; r++ {
		rev.offsets[r+1] += rev.offsets[r]
	}
	// Fill with offsets[r] as the write cursor of list r: afterwards it
	// has advanced to the start of list r+1, so shifting the array up by
	// one restores the offsets.
	for i := 0; i+1 < len(fwd.offsets); i++ {
		for _, r := range fwd.targets[fwd.offsets[i]:fwd.offsets[i+1]] {
			rev.targets[rev.offsets[r]] = uint32(i)
			rev.offsets[r]++
		}
	}
	copy(rev.offsets[1:], rev.offsets[:nt])
	rev.offsets[0] = 0
}

// Query returns the query graph the space was built for.
func (s *Space) Query() *graph.Graph { return s.q }

// Candidates returns C(u). The slice aliases internal storage.
func (s *Space) Candidates(u graph.Vertex) []uint32 { return s.candidates[u] }

// neighborPos returns the position of up within u's neighbor list, or -1.
func (s *Space) neighborPos(u, up graph.Vertex) int {
	if i, ok := slices.BinarySearch(s.q.Neighbors(u), up); ok {
		return i
	}
	return -1
}

// Pair is the directed pair (u, u') of 𝒜 resolved once: its CSR and,
// when MaterializeBlocks ran before Space.Pair, its block arena. The
// zero Pair is a pair that is not materialized. Enumeration resolves the
// pairs it reads when an engine is built, so a search node indexes its
// candidate straight into them.
type Pair struct {
	csr  *edgeCSR
	flat *intersect.FlatBlocks
}

// Pair returns the directed pair (u, u'): the zero Pair when u' is not
// a neighbour of u or the pair is not materialized.
func (s *Space) Pair(u, up graph.Vertex) Pair {
	pos := s.neighborPos(u, up)
	if pos < 0 {
		return Pair{}
	}
	p := Pair{csr: s.edges[u][pos]}
	if p.csr != nil && s.flat != nil {
		p.flat = s.flat[u][pos]
	}
	return p
}

// Adjacency returns 𝒜[u->u'](ci): the ascending positions in C(u') of
// the candidates adjacent to the candidate at position ci of C(u). It
// returns nil for the zero Pair, or if ci is out of range.
func (p Pair) Adjacency(ci int) []uint32 {
	if p.csr == nil || ci < 0 || ci+1 >= len(p.csr.offsets) {
		return nil
	}
	return p.csr.targets[p.csr.offsets[ci]:p.csr.offsets[ci+1]]
}

// View returns the block view of Adjacency(ci): the zero view when the
// pair has no block arena or ci is out of range.
func (p Pair) View(ci int) intersect.BlockView {
	if p.flat == nil || ci < 0 || ci >= p.flat.NumSets() {
		return intersect.BlockView{}
	}
	return p.flat.View(ci)
}

// Adjacency returns 𝒜[u->u'](candIdx), positions in C(u'): the pair
// lookup and Pair.Adjacency in one call, for callers that read a pair
// once.
func (s *Space) Adjacency(u, up graph.Vertex, candIdx int) []uint32 {
	return s.Pair(u, up).Adjacency(candIdx)
}

// HasPair reports whether the directed pair (u, u') is materialized.
func (s *Space) HasPair(u, up graph.Vertex) bool {
	return s.Pair(u, up).csr != nil
}

// TotalCandidates returns the summed candidate-set sizes.
func (s *Space) TotalCandidates() int {
	n := 0
	for _, c := range s.candidates {
		n += len(c)
	}
	return n
}

// MeanCandidates returns (1/|V(q)|) * sum |C(u)|, the paper's
// candidate-count metric.
func (s *Space) MeanCandidates() float64 {
	if len(s.candidates) == 0 {
		return 0
	}
	return float64(s.TotalCandidates()) / float64(len(s.candidates))
}

// MemoryBytes is the heap footprint of the candidate sets and the
// materialized candidate edges, the paper's memory-cost metric: the
// pairs' offsets and targets windows tile the build's two slabs, so it
// counts both exactly (the CSR headers are not counted).
func (s *Space) MemoryBytes() int64 {
	var b int64
	for _, c := range s.candidates {
		b += int64(len(c)) * 4
	}
	for _, row := range s.edges {
		for _, csr := range row {
			if csr != nil {
				b += int64(len(csr.offsets))*4 + int64(len(csr.targets))*4
			}
		}
	}
	return b
}
