package filter

import (
	"slices"

	"subgraphmatching/internal/bipartite"
	"subgraphmatching/internal/bitset"
	"subgraphmatching/internal/graph"
)

// One execution path. Every filtering method is a sequence of
// operations on the candidate state — scan a label pool into C(u),
// generate C(u) from C(parent) (Generation Rule 3.1), prune C(u)
// against neighboring sets (Filtering Rule 3.1), or refine C(u) with
// GraphQL's semi-perfect matching test — and the method files (cfl.go,
// ceci.go, dpiso.go, graphql.go, filter.go) only spell out their
// sequence. This file executes a sequence; there is no other executor,
// and a one-worker run is the same code with every task inline on the
// caller's goroutine (package par).
//
// The result is the one the operations produce when applied strictly
// one after another, at every worker count. Parallelism is extracted
// on two axes without changing it:
//
//   - within one operation, the input list is cut into index chunks
//     that fan out as tasks; a candidate's fate depends only on sets the
//     operation does not write (a check of v ∈ C(u) reads member[u′]
//     for u′ ≠ u, never member[u]), so the chunks are independent and
//     their outputs, stitched in chunk order, are the sequential output;
//   - consecutive operations that touch disjoint state are packed into
//     one "wave" and fan out together. Within a wave every task reads
//     state frozen at the wave boundary; writes are applied in
//     operation order at the post-wave barrier. An operation that
//     reads state an earlier wave member writes starts the next wave,
//     so each operation still observes exactly what the strictly
//     sequential run would have. Consecutive prunes of one target fuse
//     into one multi-source prune (sequential composition of prunes on
//     a fixed target is the conjunction of their checks — the sources'
//     sets are untouched by prunes of the target).
//
// The per-vertex scans of all query vertices are one wave, one BFS
// level's generations read only the previous level's sets and become a
// wave naturally, and GraphQL's refinement — Gauss–Seidel at
// query-vertex granularity: refine C(u) for u in order, each seeing
// the removals of the vertices before it — packs runs of mutually
// non-adjacent query vertices.

// scanChunk is the number of label-pool vertices one scan task examines
// on a multi-worker run. Small enough that a hub label's pool splits
// into many tasks (load balance under label skew), large enough that
// the per-task bookkeeping stays negligible.
const scanChunk = 256

// candChunk is the number of candidates (parent candidates for
// generation, own candidates for pruning and refinement) one task
// handles on a multi-worker run. Waves over candidate lists are smaller
// than the label-pool scans, so the chunk is finer to keep enough tasks
// in flight per wave.
const candChunk = 64

// scratch is one worker's private mutable state, allocated on first
// use by the task that needs it: a dedup bitset for generation chunks
// (tasks undo only the bits they set — a full Reset is O(|V(G)|/64) and
// would dominate small chunks), the matcher of the semi-perfect
// matching test, and the radius-r profilers of GraphQL's wide local
// pruning.
type scratch struct {
	seen         *bitset.Set
	matcher      *bipartite.Matcher
	gProf, qProf *profiler
}

type opKind uint8

const (
	// opScan overwrites C(u) with the vertices of u's label pool that
	// pass the degree check and, when nlf is set, the NLF check (the
	// radius-r profile check on a state with radius > 1).
	opScan opKind = iota
	// opGen overwrites C(u) by Generation Rule 3.1 from C(src[0]).
	opGen
	// opPrune keeps the v ∈ C(u) with a neighbor in C(u′) for every
	// u′ ∈ src (Filtering Rule 3.1) that also pass NLF when nlf is set.
	opPrune
	// opMatch keeps the v ∈ C(u) whose neighborhood has a semi-perfect
	// matching against src = N(u) (GraphQL, Observation 3.2).
	opMatch
)

// op is one step of a method's operation sequence.
type op struct {
	kind opKind
	u    graph.Vertex
	src  []graph.Vertex
	nlf  bool
	// classes is src cut into label classes (opMatch only; labelClasses):
	// a property of the query, so it is computed once per refined vertex
	// and shared by every candidate's check in every round.
	classes [][]graph.Vertex
}

// scanAll is the opening wave of most methods: one label-pool scan per
// query vertex.
func scanAll(q *graph.Graph, nlf bool) []op {
	ops := make([]op, q.NumVertices())
	for u := range ops {
		ops[u] = op{kind: opScan, u: graph.Vertex(u), nlf: nlf}
	}
	return ops
}

// run executes the operation sequence with wave packing and reports
// whether a prune or refinement removed any candidate. Writer tracking
// is all the packing needs: an operation joins the current wave unless
// it reads or writes a vertex's candidate state that an earlier wave
// member writes (reads of unwritten state are free — they see the
// frozen wave snapshot, which is exactly the pre-operation state the
// strictly sequential run would read).
func (s *state) run(ops []op) bool {
	const (
		free = iota
		overwritten
		filtered
	)
	written := make([]uint8, len(s.cand))
	listRead := make([]bool, len(s.cand)) // a wave member generates from the vertex's list
	slot := make([]int, len(s.cand))      // wave index of the filter op on a `filtered` vertex
	var wave []op
	removed := false
	flush := func() {
		if len(wave) > 0 {
			removed = s.runWave(wave) || removed
			wave = wave[:0]
		}
		clear(written)
		clear(listRead)
	}
	for _, o := range ops {
		// Filter tasks partition C(u) in place, so they cannot share a
		// wave with a generation walking that list (membership reads
		// are fine: the bitmaps only change at the barrier).
		conflict := (o.kind == opPrune || o.kind == opMatch) && listRead[o.u]
		for _, p := range o.src {
			if written[p] != free { // RAW on a source's candidates
				conflict = true
				break
			}
		}
		// A second write of u in one wave is only possible as a prune
		// joining an earlier prune: both read C(u) as of the wave
		// snapshot, which is what the sequential run reads only if
		// nothing else wrote u in between.
		fuse := o.kind == opPrune && written[o.u] == filtered && wave[slot[o.u]].kind == opPrune
		if conflict || (written[o.u] != free && !fuse) {
			flush()
			fuse = false
		}
		if fuse {
			w := &wave[slot[o.u]]
			w.src = append(append([]graph.Vertex(nil), w.src...), o.src...)
			w.nlf = w.nlf || o.nlf
			continue
		}
		slot[o.u] = len(wave)
		wave = append(wave, o)
		switch o.kind {
		case opScan:
			written[o.u] = overwritten
		case opGen:
			written[o.u] = overwritten
			listRead[o.src[0]] = true
		default:
			written[o.u] = filtered
		}
	}
	flush()
	return removed
}

// task is one chunk of one wave operation's input list.
type task struct {
	op     int
	lo, hi int
}

// runWave fans one wave's operations out in chunk-sized tasks and
// applies all writes at the barrier, in operation order. Tasks read
// only candidate state as of wave entry (candidate lists are replaced
// and member bitmaps mutated exclusively here, after the Wave call
// returns; a filter task reorders its own chunk and nothing else), so
// chunk outputs are independent of worker count and task order. On a
// one-worker pool a task is its operation's whole list: nothing to
// balance, nothing to stitch.
func (s *state) runWave(wave []op) (removed bool) {
	tasks := s.tasks[:0]
	for i, o := range wave {
		var n int
		switch o.kind {
		case opScan:
			n = len(s.g.VerticesWithLabel(s.q.Label(o.u)))
		case opGen:
			n = len(s.cand[o.src[0]])
		default:
			n = len(s.cand[o.u])
		}
		chunk := n
		if s.fr.Workers() > 1 {
			chunk = candChunk
			if o.kind == opScan {
				chunk = scanChunk
			}
		}
		for lo := 0; lo < n; lo += chunk {
			tasks = append(tasks, task{op: i, lo: lo, hi: min(lo+chunk, n)})
		}
	}
	s.tasks = tasks
	outs := make([][]uint32, len(tasks)) // scan/gen output, filter survivors (a prefix of the chunk)
	s.fr.Wave(len(tasks), func(sc *scratch, t int) uint64 {
		tk := tasks[t]
		switch o := wave[tk.op]; o.kind {
		case opScan:
			outs[t] = s.scanChunk(sc, o, tk.lo, tk.hi)
		case opGen:
			outs[t] = s.genChunk(sc, o, tk.lo, tk.hi)
		default:
			outs[t] = s.filterChunk(sc, o, tk.lo, tk.hi)
		}
		return uint64(tk.hi - tk.lo)
	})

	// Barrier: apply in operation order. Tasks were emitted per op in
	// ascending chunk order, so stitching concatenates chunk outputs.
	t := 0
	for i, o := range wave {
		first := t
		for t < len(tasks) && tasks[t].op == i {
			t++
		}
		switch o.kind {
		case opScan:
			s.setCandidates(o.u, stitch(outs[first:t]))
		case opGen:
			// Chunks dedup locally (per-worker seen bitset) in discovery
			// order; distinct chunks of C(parent) can still reach the
			// same data vertex. The sorted union is C(u).
			c := stitch(outs[first:t])
			slices.Sort(c)
			s.setCandidates(o.u, slices.Compact(c))
		default:
			// Each chunk now holds its survivors, then its removals:
			// the bitmap loses the latter, the former close ranks.
			c, n := s.cand[o.u], 0
			for k := first; k < t; k++ {
				for _, v := range c[tasks[k].lo+len(outs[k]) : tasks[k].hi] {
					s.member[o.u].Clear(v)
					removed = true
				}
				n += copy(c[n:], outs[k])
			}
			s.cand[o.u] = c[:n]
		}
	}
	return removed
}

// stitch concatenates chunk outputs; a lone chunk is adopted as is.
func stitch(chunks [][]uint32) []uint32 {
	if len(chunks) == 1 {
		return chunks[0]
	}
	n := 0
	for _, c := range chunks {
		n += len(c)
	}
	out := make([]uint32, 0, n)
	for _, c := range chunks {
		out = append(out, c...)
	}
	return out
}

// scanChunk runs one scan task over a chunk of u's label pool (sorted,
// so the stitched survivors are the sorted candidate set).
func (s *state) scanChunk(sc *scratch, o op, lo, hi int) []uint32 {
	q, g, u := s.q, s.g, o.u
	wide := o.nlf && s.radius > 1
	var want labelProfile
	if wide {
		if sc.gProf == nil {
			sc.gProf = newProfiler(g, s.radius)
			sc.qProf = newProfiler(q, s.radius)
		}
		want = sc.qProf.profile(q, u)
	}
	var out []uint32
	for _, v := range g.VerticesWithLabel(q.Label(u))[lo:hi] {
		if g.Degree(v) < q.Degree(u) {
			continue
		}
		if wide {
			if !sc.gProf.covers(g, v, want) {
				continue
			}
		} else if o.nlf && !nlfOK(q, g, u, v) {
			continue
		}
		out = append(out, v)
	}
	return out
}

// genChunk runs one generation task: Generation Rule 3.1 over a chunk
// of C(parent) — the LDF+NLF-passing neighbors of the chunk's
// candidates. The seen bitset dedups within the chunk; only the
// accepted vertices were marked, so clearing them restores the scratch
// for the next task.
func (s *state) genChunk(sc *scratch, o op, lo, hi int) []uint32 {
	if sc.seen == nil {
		sc.seen = bitset.New(s.g.NumVertices())
	}
	var out []uint32
	for _, vp := range s.cand[o.src[0]][lo:hi] {
		for _, v := range s.g.Neighbors(vp) {
			if !sc.seen.Contains(v) && ldfOK(s.q, s.g, o.u, v) && nlfOK(s.q, s.g, o.u, v) {
				sc.seen.Set(v)
				out = append(out, v)
			}
		}
	}
	for _, v := range out {
		sc.seen.Clear(v)
	}
	return out
}

// filterChunk runs one prune or refinement task over a chunk of C(u):
// it partitions the chunk in place — survivors first, in order, then
// the removals — and returns the survivors.
func (s *state) filterChunk(sc *scratch, o op, lo, hi int) []uint32 {
	if o.kind == opMatch && sc.matcher == nil {
		sc.matcher = bipartite.NewMatcher(s.q.MaxDegree())
	}
	c := s.cand[o.u][lo:hi]
	k := 0
	for i, v := range c {
		if s.keeps(sc, o, v) {
			c[k], c[i] = c[i], c[k]
			k++
		}
	}
	return c[:k]
}

// keeps is the survival check of a filter operation for one candidate.
func (s *state) keeps(sc *scratch, o op, v uint32) bool {
	if o.kind == opMatch {
		return s.semiPerfect(sc.matcher, o.classes, v)
	}
	if o.nlf && !nlfOK(s.q, s.g, o.u, v) {
		return false
	}
	for _, up := range o.src {
		if !s.hasNeighborIn(v, up) {
			return false
		}
	}
	return true
}
