// Package candspace implements the auxiliary data structure 𝒜 of the
// paper: for candidate vertex sets C(u), it maintains the edges between
// candidates of adjacent query vertices, so that
//
//	𝒜[u->u'](v) = N(v) ∩ C(u')
//
// can be retrieved in O(1) during enumeration. Two variants exist,
// distinguished by which query edges are materialized:
//
//   - Full: every edge of E(q), as in CECI's compact embedding cluster
//     index and DP-iso's candidate space. Enables the set-intersection
//     local candidate computation (paper Algorithm 5).
//   - Tree: only the spanning-tree edges, as in CFL's compressed path
//     index. Non-tree edges are verified with binary searches during
//     enumeration (paper Algorithm 4).
package candspace

import (
	"math/bits"
	"slices"
	"sync/atomic"

	"subgraphmatching/internal/bitset"
	"subgraphmatching/internal/graph"
	"subgraphmatching/internal/intersect"
	"subgraphmatching/internal/par"
)

// Space is the auxiliary structure 𝒜 over a query graph and candidate
// sets. It is immutable after Build.
type Space struct {
	q          *graph.Graph
	candidates [][]uint32 // per query vertex, sorted data vertices

	// For each directed adjacent pair (u, i) where i indexes u's
	// neighbor list, a CSR mapping candidate index of u to the sorted
	// data vertices of C(neighbor) adjacent to it. nil when the pair is
	// not materialized (tree variant).
	edges [][]*edgeCSR

	// arenas mirrors edges with one QFilter-style block arena per
	// materialized pair (per-candidate layouts are offset windows into
	// it), each encoded on first use; nil until PlanBlocks or
	// MaterializeBlocks offers the block layout (blocks.go).
	arenas [][]*pairArena
	// encodedArenas and encodedBytes count the arenas encoded so far and
	// their bytes (EncodedBlocks).
	encodedArenas, encodedBytes atomic.Int64
}

type edgeCSR struct {
	offsets []int32
	targets []uint32
	// blocks holds the running count of the 64-wide blocks the sets
	// occupy — set i's are blocks[i]:blocks[i+1] — recorded by Build
	// once the pair's sets are complete. It is what the adaptive
	// selector's density test reads, and the offsets of the pair's
	// block arena.
	blocks []int32
}

// BuildFull materializes 𝒜 for every query edge (CECI/DP-iso style) on
// one worker: Build with no parent array. candidates[u] must be sorted;
// the slice is retained.
func BuildFull(q *graph.Graph, g *graph.Graph, candidates [][]uint32) *Space {
	s, _ := Build(q, g, candidates, nil, 1)
	return s
}

// materialized reports whether the directed pair (u, up) gets a CSR:
// always for the full variant (parent == nil), only along tree edges
// otherwise.
func materialized(parent []graph.Vertex, u, up graph.Vertex) bool {
	return parent == nil || parent[u] == up || parent[up] == u
}

// appendMembers appends to dst the vertices of run (sorted) that member
// contains: 𝒜[u->u'](v) = N(v) ∩ C(u') as one scan of the L(u′) run of
// N(v) against the membership bitmap of C(u'), in the run's order and so
// sorted.
func appendMembers(dst []uint32, run []uint32, member *bitset.Set) []uint32 {
	for _, w := range run {
		if member.Contains(w) {
			dst = append(dst, w)
		}
	}
	return dst
}

// buildChunk is the number of candidates of u one build task
// intersects on a multi-worker run. Chunking below the per-edge grain
// matters under label skew, where a single (u, u′) pair over a hub
// label's candidates can hold most of the total intersection work. 64
// is finer than the filter's scan chunks because per-candidate cost
// varies more here (a hub's adjacency list can be orders of magnitude
// longer than a leaf's).
const buildChunk = 64

// buildTask covers candidates[lo:hi] of one directed pair: the index of
// the pair in the task list's pair slice, and its candidate range.
type buildTask struct {
	pair   int
	lo, hi int
}

// buildPair is one scanned directed pair (u, u′) of the target group
// being built: its source vertex and the CSR under construction.
type buildPair struct {
	u   graph.Vertex
	csr *edgeCSR
}

// Build materializes 𝒜 across `workers` goroutines (≤ 1 = inline on
// the caller's goroutine) and returns it beside the per-worker work
// tallies (candidates scanned plus targets emitted or transposed), the
// input to par.MakespanBound. With parent == nil every query edge is
// materialized; otherwise only the spanning-tree edges given by parent
// (CFL style): pairs (parent[u], u) and (u, parent[u]). candidates[u]
// must be sorted, and every vertex in it must carry label L(u), as
// every filter's sets do; the slice is retained.
//
// 𝒜[u→u′] and 𝒜[u′→u] are one edge set E(C(u), C(u′)) read from its
// two ends, so each query edge is found once and transposed. It is
// scanned from the end whose candidates have the smaller Σ d(v) (ties:
// the smaller vertex id — a property of the input, never of the worker
// count): for each candidate v, the neighbours of v labelled L(u′)
// (the label run graph.NLF.Run hands out — by the precondition no other
// neighbour can be in C(u′)) against a bitmap of the other end's set.
// Scanned pairs are visited grouped by their target u′, so one bitmap
// of C(u′) is set once, serves every u that scans towards u′, and is
// cleared by walking C(u′) again (never a full reset). Inside
// a group the candidates of each u are cut into chunks that fan out as
// tasks reading the shared bitmap; the group's pairs are then
// transposed, one task per pair, with a target's index in C(u′) taken
// from popcount prefix sums over the same bitmap. Every adjacency list
// is a set that does not depend on how it was found, so the CSRs are
// byte-identical for every worker count and scan direction. On one
// worker a scan task is a pair's whole candidate list. The transposing
// task also records the block count of every set of both directions
// (edgeCSR.blocks), which is all a block layout needs before an arena
// is encoded (blocks.go).
func Build(q, g *graph.Graph, candidates [][]uint32, parent []graph.Vertex, workers int) (*Space, []uint64) {
	if workers < 1 {
		workers = 1
	}
	s := &Space{
		q:          q,
		candidates: candidates,
		edges:      make([][]*edgeCSR, q.NumVertices()),
	}
	scanCost := make([]uint64, q.NumVertices()) // Σ d(v) over C(u): what scanning from u reads
	for u := range s.edges {
		s.edges[u] = make([]*edgeCSR, q.Degree(graph.Vertex(u)))
		for _, v := range candidates[u] {
			scanCost[u] += uint64(g.Degree(v))
		}
	}
	tally := make([]uint64, workers)
	gx := g.NLF()
	member := bitset.New(g.NumVertices())
	words := member.Words()
	before := make([]int32, len(words))  // members of the bitmap below each word
	scratch := make([][]uint32, workers) // per-worker target buffer, reused across tasks
	var pairs []buildPair
	var tasks []buildTask
	var chunks [][]uint32
	for t := 0; t < q.NumVertices(); t++ {
		up := graph.Vertex(t)
		pairs, tasks = pairs[:0], tasks[:0]
		for _, u := range q.Neighbors(up) {
			if !materialized(parent, u, up) {
				continue
			}
			if scanCost[u] > scanCost[up] || (scanCost[u] == scanCost[up] && u > up) {
				continue // up's group scans this edge the other way
			}
			n := len(candidates[u])
			csr := &edgeCSR{offsets: make([]int32, n+1)}
			s.edges[u][s.neighborPos(u, up)] = csr
			chunk := n
			if workers > 1 {
				chunk = buildChunk
			}
			for lo := 0; lo < n; lo += chunk {
				tasks = append(tasks, buildTask{pair: len(pairs), lo: lo, hi: min(lo+chunk, n)})
			}
			pairs = append(pairs, buildPair{u: u, csr: csr})
		}
		if len(pairs) == 0 {
			continue
		}
		for _, v := range candidates[up] {
			member.Set(v)
		}
		// A task fills its slice of the pair's offsets with chunk-local
		// running totals and leaves an exact-length copy of its targets.
		label := q.Label(up)
		chunks = slices.Grow(chunks[:0], len(tasks))[:len(tasks)]
		work := par.Run(workers, len(tasks), func(w, t int) uint64 {
			task := tasks[t]
			p := pairs[task.pair]
			offsets := p.csr.offsets[task.lo+1 : task.hi+1]
			buf := scratch[w][:0]
			for i, v := range candidates[p.u][task.lo:task.hi] {
				buf = appendMembers(buf, gx.Run(v, label), member)
				offsets[i] = int32(len(buf))
			}
			scratch[w] = buf
			chunks[t] = append(make([]uint32, 0, len(buf)), buf...)
			return uint64(task.hi - task.lo + len(buf))
		})
		par.Accumulate(tally, work)
		// Stitch: tasks of one pair are contiguous and in candidate
		// order. targets is exact-length either way — a cached plan is
		// charged len(targets) (MemoryBytes), so it must not hold spare
		// capacity.
		for t := 0; t < len(tasks); {
			pair := tasks[t].pair
			csr := pairs[pair].csr
			first := t
			total := 0
			for ; t < len(tasks) && tasks[t].pair == pair; t++ {
				if total > 0 {
					for ci := tasks[t].lo; ci < tasks[t].hi; ci++ {
						csr.offsets[ci+1] += int32(total)
					}
				}
				total += len(chunks[t])
			}
			if t-first == 1 {
				csr.targets = chunks[first]
				continue
			}
			csr.targets = make([]uint32, 0, total)
			for _, c := range chunks[first:t] {
				csr.targets = append(csr.targets, c...)
			}
		}
		below := int32(0)
		for i, w := range words {
			before[i] = below
			below += int32(bits.OnesCount64(w))
		}
		work = par.Run(workers, len(pairs), func(_, i int) uint64 {
			p := pairs[i]
			rev := transpose(p.csr, candidates[p.u], len(candidates[up]), words, before)
			p.csr.countBlocks()
			rev.countBlocks()
			s.edges[up][s.neighborPos(up, p.u)] = rev
			return uint64(len(rev.targets))
		})
		par.Accumulate(tally, work)
		for _, v := range candidates[up] {
			member.Clear(v)
		}
	}
	return s, tally
}

// transpose turns fwd = 𝒜[u→u′] over src = C(u) into 𝒜[u′→u] over the
// nt candidates of u′ by a counting sort on the target's index in
// C(u′): the number of set bits of words (the bitmap of C(u′)) below
// it, from the per-word running counts in before. Sources are visited
// in ascending order, so every transposed list comes out sorted.
func transpose(fwd *edgeCSR, src []uint32, nt int, words []uint64, before []int32) *edgeCSR {
	rank := func(w uint32) int32 {
		return before[w/64] + int32(bits.OnesCount64(words[w/64]&(1<<(w%64)-1)))
	}
	rev := &edgeCSR{offsets: make([]int32, nt+1), targets: make([]uint32, len(fwd.targets))}
	for _, w := range fwd.targets {
		rev.offsets[rank(w)+1]++
	}
	for r := 0; r < nt; r++ {
		rev.offsets[r+1] += rev.offsets[r]
	}
	// Fill with offsets[r] as the write cursor of list r: afterwards it
	// has advanced to the start of list r+1, so shifting the array up by
	// one restores the offsets.
	for i, v := range src {
		for _, w := range fwd.targets[fwd.offsets[i]:fwd.offsets[i+1]] {
			r := rank(w)
			rev.targets[rev.offsets[r]] = v
			rev.offsets[r]++
		}
	}
	copy(rev.offsets[1:], rev.offsets[:nt])
	rev.offsets[0] = 0
	return rev
}

// countBlocks records how many 64-wide blocks each of the CSR's sets
// occupies, as running totals (edgeCSR.blocks).
func (c *edgeCSR) countBlocks() {
	c.blocks = make([]int32, len(c.offsets))
	for i := 0; i+1 < len(c.offsets); i++ {
		c.blocks[i+1] = c.blocks[i] + int32(intersect.CountBlocks(c.targets[c.offsets[i]:c.offsets[i+1]]))
	}
}

// Query returns the query graph the space was built for.
func (s *Space) Query() *graph.Graph { return s.q }

// Candidates returns C(u). The slice aliases internal storage.
func (s *Space) Candidates(u graph.Vertex) []uint32 { return s.candidates[u] }

// AllCandidates returns the per-vertex candidate sets.
func (s *Space) AllCandidates() [][]uint32 { return s.candidates }

// CandidateIndex returns the index of data vertex v within C(u), or -1 if
// v is not a candidate of u.
func (s *Space) CandidateIndex(u graph.Vertex, v uint32) int {
	if i, ok := slices.BinarySearch(s.candidates[u], v); ok {
		return i
	}
	return -1
}

// neighborPos returns the position of up within u's neighbor list, or -1.
func (s *Space) neighborPos(u, up graph.Vertex) int {
	if i, ok := slices.BinarySearch(s.q.Neighbors(u), up); ok {
		return i
	}
	return -1
}

// Pair is the directed pair (u, u') of 𝒜 resolved once: its CSR and,
// when the block layout was offered (PlanBlocks or MaterializeBlocks)
// before Space.Pair, its block arena. The zero Pair is a pair that is
// not materialized. Enumeration resolves the pairs it reads when an
// engine is built, so a search node indexes its candidate straight into
// them.
type Pair struct {
	csr   *edgeCSR
	arena *pairArena
}

// Pair returns the directed pair (u, u'): the zero Pair when u' is not
// a neighbour of u or the pair is not materialized.
func (s *Space) Pair(u, up graph.Vertex) Pair {
	pos := s.neighborPos(u, up)
	if pos < 0 {
		return Pair{}
	}
	p := Pair{csr: s.edges[u][pos]}
	if p.csr != nil && s.arenas != nil {
		p.arena = s.arenas[u][pos]
	}
	return p
}

// Adjacency returns 𝒜[u->u'](v) — the sorted data vertices of C(u')
// adjacent to candidate v of u — where ci is v's index in C(u). It
// returns nil for the zero Pair, or if ci is out of range — in
// particular the -1 CandidateIndex reports when an over-pruning filter
// left C(u) empty.
func (p Pair) Adjacency(ci int) []uint32 {
	if p.csr == nil || ci < 0 || ci+1 >= len(p.csr.offsets) {
		return nil
	}
	return p.csr.targets[p.csr.offsets[ci]:p.csr.offsets[ci+1]]
}

// Layout returns the block layout of Adjacency(ci) — its block count
// and where its view comes from, without encoding anything: the zero
// Layout when the pair has no block arena or ci is out of range.
func (p Pair) Layout(ci int) intersect.Layout {
	if p.arena == nil || ci < 0 || ci+1 >= len(p.csr.blocks) {
		return intersect.Layout{}
	}
	return intersect.Layout{Blocks: int(p.csr.blocks[ci+1] - p.csr.blocks[ci]), Arena: p.arena, Index: ci}
}

// View returns the block view of Adjacency(ci), encoding the pair's
// arena if this is its first use: the zero view when the pair has no
// block arena or ci is out of range.
func (p Pair) View(ci int) intersect.BlockView {
	if l := p.Layout(ci); l.Valid() {
		return l.View()
	}
	return intersect.BlockView{}
}

// Adjacency returns 𝒜[u->u'](v) where candIdx is v's index in C(u): the
// pair lookup and Pair.Adjacency in one call, for callers that read a
// pair once.
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

// MemoryBytes estimates the heap footprint of the candidate sets and the
// materialized candidate edges, the paper's memory-cost metric.
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
