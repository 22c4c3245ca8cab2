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
	"sort"

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

	// flat mirrors edges with one flat QFilter-style block arena per
	// directed query edge (per-candidate layouts are offset windows into
	// it); nil until MaterializeBlocks runs.
	flat [][]*intersect.FlatBlocks
}

type edgeCSR struct {
	offsets []int32
	targets []uint32
}

// BuildFull materializes 𝒜 for every query edge (CECI/DP-iso style).
// candidates[u] must be sorted; the slice is retained.
func BuildFull(q *graph.Graph, g *graph.Graph, candidates [][]uint32) *Space {
	return build(q, g, candidates, nil)
}

// BuildTree materializes 𝒜 only for the spanning-tree edges given by
// parent (CFL style): pairs (parent[u], u) and (u, parent[u]).
func BuildTree(q *graph.Graph, g *graph.Graph, candidates [][]uint32, parent []graph.Vertex) *Space {
	return build(q, g, candidates, parent)
}

// BuildFullParallel is BuildFull across `workers` goroutines. Every
// (u, u′) directed query-edge adjacency list is independent of the
// others, so the CSRs are built concurrently — in candidate-range
// chunks, stitched back in order — and the result is byte-identical to
// the sequential build for every worker count.
func BuildFullParallel(q, g *graph.Graph, candidates [][]uint32, workers int) *Space {
	s, _ := BuildFullParallelStats(q, g, candidates, workers)
	return s
}

// BuildFullParallelStats is BuildFullParallel returning also the
// per-worker work tallies (candidates processed plus targets emitted),
// the input to par.MakespanBound.
func BuildFullParallelStats(q, g *graph.Graph, candidates [][]uint32, workers int) (*Space, []uint64) {
	return buildParallel(q, g, candidates, nil, workers)
}

// BuildTreeParallel is BuildTree across `workers` goroutines.
func BuildTreeParallel(q, g *graph.Graph, candidates [][]uint32, parent []graph.Vertex, workers int) *Space {
	s, _ := buildParallel(q, g, candidates, parent, workers)
	return s
}

// materialized reports whether the directed pair (u, up) gets a CSR:
// always for the full variant (parent == nil), only along tree edges
// otherwise.
func materialized(parent []graph.Vertex, u, up graph.Vertex) bool {
	return parent == nil || parent[u] == up || parent[up] == u
}

// appendMembers appends to dst the vertices of nv (sorted) that member
// contains: 𝒜[u->u'](v) = N(v) ∩ C(u') as one scan of N(v) against the
// membership bitmap of C(u'), in N(v)'s order and so sorted. Both the
// sequential and the chunked parallel build fill their CSRs through it.
func appendMembers(dst []uint32, nv []uint32, member *bitset.Set) []uint32 {
	for _, w := range nv {
		if member.Contains(w) {
			dst = append(dst, w)
		}
	}
	return dst
}

func build(q, g *graph.Graph, candidates [][]uint32, parent []graph.Vertex) *Space {
	s := &Space{
		q:          q,
		candidates: candidates,
		edges:      make([][]*edgeCSR, q.NumVertices()),
	}
	for u := range s.edges {
		s.edges[u] = make([]*edgeCSR, q.Degree(graph.Vertex(u)))
	}
	// Pairs are visited grouped by their target u′, so the bitmap of
	// C(u′) is set once, serves every u ∈ N(u′), and is cleared by
	// walking C(u′) again (never a full reset).
	member := bitset.New(g.NumVertices())
	var scratch []uint32
	for t := 0; t < q.NumVertices(); t++ {
		up := graph.Vertex(t)
		for _, v := range candidates[up] {
			member.Set(v)
		}
		for _, u := range q.Neighbors(up) {
			if !materialized(parent, u, up) {
				continue
			}
			csr := &edgeCSR{offsets: make([]int32, len(candidates[u])+1)}
			scratch = scratch[:0]
			for ci, v := range candidates[u] {
				scratch = appendMembers(scratch, g.Neighbors(v), member)
				csr.offsets[ci+1] = int32(len(scratch))
			}
			// Exact length: a cached plan is charged len(targets)
			// (MemoryBytes), so it must not hold spare capacity.
			csr.targets = append(make([]uint32, 0, len(scratch)), scratch...)
			s.edges[u][s.neighborPos(u, up)] = csr
		}
		for _, v := range candidates[up] {
			member.Clear(v)
		}
	}
	return s
}

// buildChunk is the number of candidates of u one build task
// intersects. Chunking below the per-edge grain matters under label
// skew, where a single (u, u′) pair over a hub label's candidates can
// hold most of the total intersection work. 64 is finer than the
// filter chunks because per-candidate cost varies more here (a hub's
// adjacency list can be orders of magnitude longer than a leaf's): on
// the skewed R-MAT benchmark fixture the 4-worker makespan bound rises
// from 2.2 at chunk 512 to 3.7 at 64 with no measurable task overhead.
const buildChunk = 64

// buildTask covers candidates[lo:hi] of the pair list entry pair.
type buildTask struct {
	pair   int
	lo, hi int
}

// pairJob is one materialized directed query edge (u, u′).
type pairJob struct {
	u   graph.Vertex
	pos int // index of u′ in u's neighbor list
	up  graph.Vertex
}

func buildParallel(q, g *graph.Graph, candidates [][]uint32, parent []graph.Vertex, workers int) (*Space, []uint64) {
	if workers <= 1 {
		return build(q, g, candidates, parent), nil
	}
	s := &Space{
		q:          q,
		candidates: candidates,
		edges:      make([][]*edgeCSR, q.NumVertices()),
	}
	var pairs []pairJob
	var tasks []buildTask
	for u := 0; u < q.NumVertices(); u++ {
		ns := q.Neighbors(graph.Vertex(u))
		s.edges[u] = make([]*edgeCSR, len(ns))
		for i, up := range ns {
			if !materialized(parent, graph.Vertex(u), up) {
				continue
			}
			pair := len(pairs)
			pairs = append(pairs, pairJob{u: graph.Vertex(u), pos: i, up: up})
			n := len(candidates[u])
			if n == 0 {
				tasks = append(tasks, buildTask{pair: pair, lo: 0, hi: 0})
				continue
			}
			for lo := 0; lo < n; lo += buildChunk {
				hi := lo + buildChunk
				if hi > n {
					hi = n
				}
				tasks = append(tasks, buildTask{pair: pair, lo: lo, hi: hi})
			}
		}
	}
	// Tasks of different pairs run concurrently, so every target vertex
	// gets its own read-only membership bitmap up front.
	member := make([]*bitset.Set, q.NumVertices())
	for _, p := range pairs {
		if member[p.up] == nil {
			member[p.up] = bitset.New(g.NumVertices())
			for _, v := range candidates[p.up] {
				member[p.up].Set(v)
			}
		}
	}
	// Per-task partial CSRs: the chunk's concatenated targets plus the
	// per-candidate lengths, stitched into offsets afterwards.
	targets := make([][]uint32, len(tasks))
	lens := make([][]int32, len(tasks))
	work := par.Run(workers, len(tasks), func(w, t int) uint64 {
		task := tasks[t]
		p := pairs[task.pair]
		chunk := candidates[p.u][task.lo:task.hi]
		var out []uint32
		ls := make([]int32, len(chunk))
		for k, v := range chunk {
			before := len(out)
			out = appendMembers(out, g.Neighbors(v), member[p.up])
			ls[k] = int32(len(out) - before)
		}
		targets[t], lens[t] = out, ls
		return uint64(len(chunk) + len(out))
	})
	// Stitch: tasks of one pair are contiguous and in candidate order.
	// targets is allocated at the summed chunk lengths — exact, like the
	// sequential build.
	for t := 0; t < len(tasks); {
		pair := tasks[t].pair
		p := pairs[pair]
		total := 0
		for e := t; e < len(tasks) && tasks[e].pair == pair; e++ {
			total += len(targets[e])
		}
		csr := &edgeCSR{
			offsets: make([]int32, len(candidates[p.u])+1),
			targets: make([]uint32, 0, total),
		}
		ci := 0
		for ; t < len(tasks) && tasks[t].pair == pair; t++ {
			csr.targets = append(csr.targets, targets[t]...)
			for _, l := range lens[t] {
				csr.offsets[ci+1] = csr.offsets[ci] + l
				ci++
			}
		}
		s.edges[p.u][p.pos] = csr
	}
	return s, work
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
	c := s.candidates[u]
	i := sort.Search(len(c), func(i int) bool { return c[i] >= v })
	if i < len(c) && c[i] == v {
		return i
	}
	return -1
}

// neighborPos returns the position of up within u's neighbor list, or -1.
func (s *Space) neighborPos(u, up graph.Vertex) int {
	ns := s.q.Neighbors(u)
	i := sort.Search(len(ns), func(i int) bool { return ns[i] >= up })
	if i < len(ns) && ns[i] == up {
		return i
	}
	return -1
}

// Adjacency returns 𝒜[u->u'](v) — the sorted data vertices of C(u')
// adjacent to candidate v of u — where candIdx is v's index in C(u).
// It returns nil if the directed pair (u, u') is not materialized, or
// if candIdx is out of range — in particular the -1 CandidateIndex
// reports when an over-pruning filter left C(u) empty.
func (s *Space) Adjacency(u, up graph.Vertex, candIdx int) []uint32 {
	pos := s.neighborPos(u, up)
	if pos < 0 {
		return nil
	}
	csr := s.edges[u][pos]
	if csr == nil || candIdx < 0 || candIdx+1 >= len(csr.offsets) {
		return nil
	}
	return csr.targets[csr.offsets[candIdx]:csr.offsets[candIdx+1]]
}

// HasPair reports whether the directed pair (u, u') is materialized.
func (s *Space) HasPair(u, up graph.Vertex) bool {
	pos := s.neighborPos(u, up)
	return pos >= 0 && s.edges[u][pos] != nil
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
