package filter

import (
	"sort"
	"time"

	"subgraphmatching/internal/bitset"
	"subgraphmatching/internal/graph"
	"subgraphmatching/internal/par"
)

// Parallel CFL and CECI filtering. Both methods advance a BFS tree of
// the query: generating C(u) from C(parent) (Generation Rule 3.1) and
// pruning pairs of already-built sets against each other (Filtering
// Rule 3.1). Unlike GQL's global refinement, their pruning is a fixed
// single-pass sequence, not an iteration to a fix point — so a Jacobi
// relaxation would change the output (an intra-level backward prune
// that sequential code applies before generating the next sibling
// would be deferred past it). To stay byte-identical to the sequential
// runners at every worker count, the parallel runners replay the exact
// sequential operation sequence and extract parallelism on two axes:
//
//   - within one operation, the candidate scan is chunked across
//     workers (generation scans C(parent) in chunks, pruning checks
//     C(u) in chunks), exactly like package par's other users;
//   - consecutive operations that touch disjoint state are packed into
//     one "wave" and fan out together. Within a wave every task reads
//     state frozen at the wave boundary; writes are applied in
//     operation order at the post-wave barrier. An operation that
//     reads state an earlier wave member writes starts the next wave,
//     so each operation still observes exactly what the sequential
//     run would have. Consecutive prunes of one target fuse into one
//     multi-source prune (sequential composition of prunes on a fixed
//     target is the conjunction of their checks — the sources' sets
//     are untouched by prunes of the target).
//
// One BFS level's generations read only the previous level's sets, so
// levels become waves naturally: the packing is the "level-synchronous
// frontier fan-out" with the sequential backward-prune barriers made
// explicit.

// treeChunk is the number of candidates (parent candidates for
// generation, own candidates for pruning) one tree-filter task
// handles. Tree waves are smaller than the global label-pool scans of
// generateParallel, so the chunk is finer than genChunk to keep enough
// tasks in flight per wave.
const treeChunk = 64

// treeScratch is one worker's private state for the tree filters: a
// dedup bitset for generation chunks (tasks undo only the bits they
// set — a full Reset is O(|V(G)|/64) and would dominate small chunks).
type treeScratch struct {
	seen *bitset.Set
}

func (s *state) newTreeFrontier(workers int) *par.Frontier[*treeScratch] {
	return par.NewFrontier(workers, func(int) *treeScratch {
		return &treeScratch{seen: bitset.New(s.g.NumVertices())}
	})
}

// treeOp is one step of the sequential tree-filter sequence. gen=true
// overwrites C(u) by Generation Rule 3.1 from C(src[0]) (src empty:
// the root's LDF+NLF label-pool scan); gen=false prunes C(u) by
// Filtering Rule 3.1 against every source in src.
type treeOp struct {
	gen bool
	u   graph.Vertex
	src []graph.Vertex
}

// runTreeOps executes the operation sequence with wave packing. Writer
// tracking is all it needs: an operation joins the current wave unless
// it reads or writes a vertex's candidate state that an earlier wave
// member writes (reads of unwritten state are free — they see the
// frozen wave snapshot, which is exactly the pre-operation state the
// sequential run would read).
func (s *state) runTreeOps(ops []treeOp, fr *par.Frontier[*treeScratch]) {
	const (
		wroteGen = 1 + iota
		wrotePrune
	)
	written := make(map[graph.Vertex]uint8)
	pruneAt := make(map[graph.Vertex]int) // wave index of a prune on the vertex
	var wave []treeOp

	flush := func() {
		if len(wave) > 0 {
			s.runTreeWave(wave, fr)
			wave = wave[:0]
		}
		clear(written)
		clear(pruneAt)
	}

	for _, op := range ops {
		conflict := false
		for _, p := range op.src {
			if written[p] != 0 { // RAW on a source's candidates
				conflict = true
				break
			}
		}
		if op.gen {
			// gen replaces C(u) wholesale; it cannot share a wave with
			// any other writer of u.
			if conflict || written[op.u] != 0 {
				flush()
			}
			wave = append(wave, op)
			written[op.u] = wroteGen
			continue
		}
		// A prune reads C(u) as of the wave snapshot; that is only the
		// state the sequential run reads if u was not generated within
		// this wave. A same-wave prune of u fuses instead.
		if conflict || written[op.u] == wroteGen {
			flush()
		}
		if i, ok := pruneAt[op.u]; ok {
			wave[i].src = append(append([]graph.Vertex(nil), wave[i].src...), op.src...)
			continue
		}
		pruneAt[op.u] = len(wave)
		wave = append(wave, op)
		written[op.u] = wrotePrune
	}
	flush()
}

// treeTask is one chunk of one wave operation.
type treeTask struct {
	op     int
	lo, hi int
}

// runTreeWave fans one wave's operations out in treeChunk-sized tasks
// and applies all writes at the barrier, in operation order. Tasks
// read only candidate state as of wave entry (cand slices and member
// bitmaps are mutated exclusively here, after the Wave call returns),
// so chunk outputs are independent of worker count and task order.
func (s *state) runTreeWave(wave []treeOp, fr *par.Frontier[*treeScratch]) {
	var tasks []treeTask
	for i, op := range wave {
		var n int
		switch {
		case !op.gen:
			n = len(s.cand[op.u])
		case len(op.src) == 0:
			n = len(s.g.VerticesWithLabel(s.q.Label(op.u)))
		default:
			n = len(s.cand[op.src[0]])
		}
		for lo := 0; lo < n; lo += treeChunk {
			hi := lo + treeChunk
			if hi > n {
				hi = n
			}
			tasks = append(tasks, treeTask{op: i, lo: lo, hi: hi})
		}
	}
	outs := make([][]uint32, len(tasks))    // gen survivors / prune kept
	removed := make([][]uint32, len(tasks)) // prune removals
	fr.Wave(len(tasks), func(sc *treeScratch, t int) uint64 {
		task := tasks[t]
		op := wave[task.op]
		if op.gen {
			outs[t] = s.genChunk(sc, op, task.lo, task.hi)
		} else {
			outs[t], removed[t] = s.pruneChunk(op, task.lo, task.hi)
		}
		return uint64(task.hi - task.lo)
	})

	// Barrier: apply in operation order. Tasks were emitted per op in
	// ascending chunk order, so stitching concatenates chunk outputs.
	t := 0
	for i, op := range wave {
		if op.gen {
			var merged []uint32
			for ; t < len(tasks) && tasks[t].op == i; t++ {
				merged = append(merged, outs[t]...)
			}
			if len(op.src) != 0 && len(merged) > 0 {
				// Chunks dedup locally (per-worker seen bitset); distinct
				// chunks of C(parent) can still reach the same data
				// vertex. The sorted union is the sequential output.
				sort.Slice(merged, func(a, b int) bool { return merged[a] < merged[b] })
				merged = dedupSorted(merged)
			}
			s.setCandidates(op.u, merged)
			continue
		}
		newCand := s.cand[op.u][:0]
		for ; t < len(tasks) && tasks[t].op == i; t++ {
			newCand = append(newCand, outs[t]...)
			for _, v := range removed[t] {
				s.member[op.u].Clear(v)
			}
		}
		s.cand[op.u] = newCand
	}
}

// genChunk runs one generation task: Generation Rule 3.1 over a chunk
// of C(parent) (or, for the root op, the LDF+NLF predicate over a
// chunk of the root's label pool — nlfCandidates, chunked). The seen
// bitset dedups within the chunk; only the accepted vertices were
// marked, so clearing them restores the scratch for the next task.
func (s *state) genChunk(sc *treeScratch, op treeOp, lo, hi int) []uint32 {
	u := op.u
	var out []uint32
	if len(op.src) == 0 {
		for _, v := range s.g.VerticesWithLabel(s.q.Label(u))[lo:hi] {
			if s.g.Degree(v) >= s.q.Degree(u) && s.nlfOK(u, v) {
				out = append(out, v)
			}
		}
		return out
	}
	for _, vp := range s.cand[op.src[0]][lo:hi] {
		for _, v := range s.g.Neighbors(vp) {
			if !sc.seen.Contains(v) && s.ldfOK(u, v) && s.nlfOK(u, v) {
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

// pruneChunk runs one pruning task: Filtering Rule 3.1 over a chunk of
// C(u), against every source of a (possibly fused) prune op.
func (s *state) pruneChunk(op treeOp, lo, hi int) (kept, removed []uint32) {
	for _, v := range s.cand[op.u][lo:hi] {
		ok := true
		for _, up := range op.src {
			if !s.hasNeighborIn(v, up) {
				ok = false
				break
			}
		}
		if ok {
			kept = append(kept, v)
		} else {
			removed = append(removed, v)
		}
	}
	return kept, removed
}

// dedupSorted removes adjacent duplicates in place.
func dedupSorted(v []uint32) []uint32 {
	out := v[:1]
	for _, x := range v[1:] {
		if x != out[len(out)-1] {
			out = append(out, x)
		}
	}
	return out
}

// runCFLParallel is runCFLFrom with the operation sequence
// wave-scheduled across workers. Output is byte-identical to the
// sequential run for every worker count.
func runCFLParallel(q, g *graph.Graph, root graph.Vertex, workers int, tally []uint64, tr *StageTrace) [][]uint32 {
	stageStart := time.Now()
	t := graph.NewBFSTree(q, root)
	s := newState(q, g)
	fr := s.newTreeFrontier(workers)

	// Phase 1: top-down generation with backward pruning — the op
	// sequence of runCFLFrom's first loop.
	var ops []treeOp
	visited := make([]bool, q.NumVertices())
	for _, u := range t.Order {
		if u == root {
			ops = append(ops, treeOp{gen: true, u: u})
		} else {
			ops = append(ops, treeOp{gen: true, u: u, src: []graph.Vertex{t.Parent[u]}})
			for _, un := range q.Neighbors(u) {
				if visited[un] && un != t.Parent[u] {
					ops = append(ops,
						treeOp{u: u, src: []graph.Vertex{un}},
						treeOp{u: un, src: []graph.Vertex{u}})
				}
			}
		}
		visited[u] = true
	}
	s.runTreeOps(ops, fr)
	stageStart = tr.add("generate", stageStart, s.cand)

	// Phase 2: bottom-up refinement. Each vertex's prunes against its
	// deeper neighbors fuse into one op; a level only reads strictly
	// deeper (earlier-refined) sets, so each level is one wave.
	ops = ops[:0]
	for i := len(t.Order) - 1; i >= 0; i-- {
		u := t.Order[i]
		var deeper []graph.Vertex
		for _, un := range q.Neighbors(u) {
			if t.Depth[un] > t.Depth[u] {
				deeper = append(deeper, un)
			}
		}
		if len(deeper) > 0 {
			ops = append(ops, treeOp{u: u, src: deeper})
		}
	}
	s.runTreeOps(ops, fr)
	tr.add("refine", stageStart, s.cand)
	par.Accumulate(tally, fr.Tally())
	return s.result()
}

// runCECIParallel is runCECIFrom with the operation sequence
// wave-scheduled across workers. Output is byte-identical to the
// sequential run for every worker count.
func runCECIParallel(q, g *graph.Graph, root graph.Vertex, workers int, tally []uint64, tr *StageTrace) [][]uint32 {
	stageStart := time.Now()
	t := graph.NewBFSTree(q, root)
	s := newState(q, g)
	fr := s.newTreeFrontier(workers)
	pos := make([]int, q.NumVertices())
	for i, u := range t.Order {
		pos[u] = i
	}

	// Phase 1: construction along δ with symmetric backward pruning.
	var ops []treeOp
	for i, u := range t.Order {
		if i == 0 {
			ops = append(ops, treeOp{gen: true, u: u})
			continue
		}
		p := t.Parent[u]
		ops = append(ops,
			treeOp{gen: true, u: u, src: []graph.Vertex{p}},
			treeOp{u: p, src: []graph.Vertex{u}})
		for _, un := range q.Neighbors(u) {
			if pos[un] < i && un != p { // backward non-tree edge
				ops = append(ops,
					treeOp{u: u, src: []graph.Vertex{un}},
					treeOp{u: un, src: []graph.Vertex{u}})
			}
		}
	}
	s.runTreeOps(ops, fr)
	stageStart = tr.add("construct", stageStart, s.cand)

	// Phase 2: reverse-δ refinement against tree children only.
	ops = ops[:0]
	children := t.Children()
	for i := len(t.Order) - 1; i >= 0; i-- {
		u := t.Order[i]
		if len(children[u]) > 0 {
			ops = append(ops, treeOp{u: u, src: children[u]})
		}
	}
	s.runTreeOps(ops, fr)
	tr.add("refine", stageStart, s.cand)
	par.Accumulate(tally, fr.Tally())
	return s.result()
}
