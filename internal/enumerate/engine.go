package enumerate

import (
	"fmt"
	"time"

	"subgraphmatching/internal/bitset"
	"subgraphmatching/internal/candspace"
	"subgraphmatching/internal/graph"
	"subgraphmatching/internal/intersect"
)

// timeCheckInterval is how many search nodes pass between deadline
// checks; checking the clock at every node would dominate small queries.
const timeCheckInterval = 1 << 12

// Run enumerates all subgraph isomorphisms from q to g following the
// matching order phi (a permutation of V(q) whose every prefix is
// connected), using the candidate sets cand and, for the auxiliary-
// structure-based local candidate methods, the candidate space.
//
// In adaptive mode (opts.Adaptive), phi is interpreted as the BFS order
// delta that defines the query DAG and the actual mapping order is chosen
// dynamically per search node, as DP-iso does.
//
// Run allocates a fresh Engine per call; callers that enumerate the same
// (query, data, candidates, order) tuple repeatedly — parallel workers
// running many tasks, benchmark loops — should construct an Engine once
// with NewEngine and reuse it, which makes the steady-state search
// allocation-free.
func Run(q, g *graph.Graph, cand [][]uint32, space *candspace.Space, phi []graph.Vertex, opts Options) (*Stats, error) {
	e, err := NewEngine(q, g, cand, space, phi, opts)
	if err != nil {
		return nil, err
	}
	return e.Run(), nil
}

// Engine is a reusable enumeration engine bound to one (query, data,
// candidates, space, order, options) tuple. All per-run scratch state —
// the partial embedding, visited marks, per-depth local-candidate
// buffers, intersection intermediates, failing-set masks — is allocated
// once at construction and re-seeded on each run, so repeated runs and
// per-task calls (RunPrefix, ExpandPrefix) allocate nothing.
//
// An Engine is not safe for concurrent use; parallel callers hold one
// engine per worker over shared read-only inputs.
type Engine struct {
	engine
}

// NewEngine validates the inputs and builds a reusable engine. The
// candidate sets, space, and order are captured by reference and must
// stay unmodified (they may be shared, read-only, across engines).
func NewEngine(q, g *graph.Graph, cand [][]uint32, space *candspace.Space, phi []graph.Vertex, opts Options) (*Engine, error) {
	n := q.NumVertices()
	if len(phi) != n {
		return nil, fmt.Errorf("enumerate: order has %d vertices, query has %d", len(phi), n)
	}
	if len(cand) != n {
		return nil, fmt.Errorf("enumerate: got %d candidate sets for %d query vertices", len(cand), n)
	}
	if opts.FailingSets && n > 64 {
		return nil, fmt.Errorf("enumerate: failing sets support at most 64 query vertices, got %d", n)
	}
	switch opts.Local {
	case TreeEdge, Intersect, IntersectBlock:
		if space == nil {
			return nil, fmt.Errorf("enumerate: %v local candidates require a candidate space", opts.Local)
		}
	}
	if opts.Adaptive && opts.Local != Intersect && opts.Local != IntersectBlock {
		return nil, fmt.Errorf("enumerate: adaptive ordering requires intersection-based local candidates")
	}
	if opts.Local == IntersectBlock && !space.HasBlocks() {
		space.MaterializeBlocks()
	}
	if opts.Homomorphism && (len(opts.SymmetryClasses) > 0 || opts.VF2PPRules) {
		return nil, fmt.Errorf("enumerate: homomorphism mode is incompatible with symmetry breaking and VF2++ rules")
	}

	E := &Engine{engine: engine{
		q: q, g: g, cand: cand, space: space, phi: phi, opts: opts,
		pos:       make([]int, n),
		embedding: make([]uint32, n),
		candIdx:   make([]int, n),
		mapped:    make([]bool, n),
		visited:   make([]bool, g.NumVertices()),
		lcBuf:     make([][]uint32, n),
		fullMask:  bitset.Mask64All(n),
	}}
	e := &E.engine
	seen := make([]bool, n)
	for i, u := range phi {
		if int(u) >= n || seen[u] {
			return nil, fmt.Errorf("enumerate: order is not a permutation of V(q)")
		}
		seen[u] = true
		e.pos[u] = i
	}
	if err := e.prepare(); err != nil {
		return nil, err
	}
	if opts.Profile {
		e.prof = newSearchProfile(n)
		e.stats.Profile = e.prof
	}
	return E, nil
}

// Run resets the per-run statistics and enumerates over all root
// candidates — the same complete search the package-level Run performs.
// The returned Stats are owned by the engine and overwritten by the next
// Run call.
func (E *Engine) Run() *Stats {
	e := &E.engine
	e.resetRun()
	if e.q.NumVertices() == 0 {
		return &e.stats
	}
	start := time.Now()
	if e.opts.TimeLimit > 0 {
		e.deadline = start.Add(e.opts.TimeLimit)
	}
	if e.opts.Adaptive {
		e.runAdaptive()
	} else {
		e.runFS(0)
	}
	e.stats.Duration = time.Since(start)
	e.stats.Kernels = e.sel.Stats()
	return &e.stats
}

// resetRun clears the cumulative statistics and abort state ahead of a
// full run. Per-node scratch (embedding, visited, buffers) needs no
// clearing: every search path unwinds its assignments even on abort.
func (e *engine) resetRun() {
	prof := e.prof
	e.stats = Stats{}
	if prof != nil {
		prof.reset()
		e.stats.Profile = prof
	}
	e.aborted = false
	e.clockTicker = 0
	e.deadline = time.Time{}
	e.sel.ResetStats()
}

// SetDeadline arms (or, with a zero time, disarms) the wall-clock
// deadline for subsequent task runs. A parallel scheduler sets one
// deadline for the whole run instead of per task.
func (E *Engine) SetDeadline(t time.Time) { E.engine.deadline = t }

// Stats returns the engine's cumulative statistics: a full Run resets
// them, while the per-task entry point (RunPrefix) accumulates across
// calls so a worker's tally is read once at the end.
func (E *Engine) Stats() *Stats {
	E.engine.stats.Kernels = E.engine.sel.Stats()
	return &E.engine.stats
}

// Stopped reports whether the engine has aborted — cancellation,
// deadline, a sink that declined, or the embedding cap. Schedulers
// probing through ExpandPrefix check it to tell an empty expansion from
// a halted one.
func (E *Engine) Stopped() bool { return E.engine.aborted }

// ResetStats clears the cumulative statistics and the abort flag without
// touching the armed deadline. Schedulers call it once per worker before
// the task loop.
func (E *Engine) ResetStats() {
	deadline := E.engine.deadline
	E.engine.resetRun()
	E.engine.deadline = deadline
}

// pollHalt polls the cancellation flag and deadline once. The search
// calls it when clockTicker comes round (enterNode, leafLevel).
// ExpandPrefix expands no search nodes, so the ticker never fires for
// it; each probe call polls directly instead — a degenerate root
// expansion must respond to ctx cancellation and Limits.TimeLimit like
// any other search work.
func (e *engine) pollHalt() bool {
	if e.aborted {
		return true
	}
	if e.opts.Cancel != nil && e.opts.Cancel.Load() {
		e.aborted = true
		return true
	}
	if !e.deadline.IsZero() && time.Now().After(e.deadline) {
		e.stats.TimedOut = true
		e.aborted = true
		return true
	}
	return false
}

// pin maps position i of a pinned prefix to the data vertex v. The
// query vertex at position i is phi[i] under a static order; under
// DP-iso's runtime order it is the vertex selectExtendable picks once
// prefix[:i] is mapped — a function of the prefix alone, so a probe and
// the task it produced re-derive the same vertex. A pinned position is
// not a search node: nothing is counted except, when profiling, the
// kernels its activation ran (attributed to depth i, as adaptiveRec
// does). pin reports false, leaving the engine as it found it, when v
// conflicts with an earlier position or breaks the symmetry order —
// ExpandPrefix filters the former, so only a caller fabricating prefixes
// sees it.
func (e *engine) pin(i int, v uint32) bool {
	u := e.phi[i]
	a := &e.adaptive
	if e.opts.Adaptive {
		if i == 0 {
			// The DAG root is the only extendable vertex of an empty
			// mapping.
			a.pool = append(a.pool[:0], u)
		}
		if len(a.pool) == 0 {
			return false
		}
		u = e.selectExtendable()
	}
	if e.visited[v] || (e.symPeers != nil && e.symViolator(u, v) != graph.NoVertex) {
		if e.opts.Adaptive {
			a.pool = append(a.pool, u)
		}
		return false
	}
	e.assign(u, v)
	if e.opts.Adaptive {
		a.pinned[i] = u
		var kpre intersect.KernelStats
		if e.prof != nil {
			kpre = e.sel.Stats()
		}
		e.activate(u)
		if e.prof != nil {
			e.prof.addKernelDelta(i, kpre, e.sel.Stats())
		}
	}
	return true
}

// unpin undoes a successful pin(i, v); positions unwind last to first.
func (e *engine) unpin(i int, v uint32) {
	u := e.phi[i]
	if e.opts.Adaptive {
		a := &e.adaptive
		u = a.pinned[i]
		e.deactivate(u)
		a.pool = append(a.pool, u)
	}
	e.unassign(u, v)
}

// pinPrefix pins prefix position by position and returns how many
// positions it mapped: len(prefix) unless one of them conflicts.
func (e *engine) pinPrefix(prefix []uint32) int {
	for i, v := range prefix {
		if !e.pin(i, v) {
			return i
		}
	}
	return len(prefix)
}

func (e *engine) unpinPrefix(prefix []uint32) {
	for i := len(prefix) - 1; i >= 0; i-- {
		e.unpin(i, prefix[i])
	}
}

// ExpandPrefix is the task-splitting probe: with the search's first
// len(prefix) positions mapped to prefix (see pin for which query vertex
// a position is), it appends to dst the local candidates of the next
// position, those conflicting with the prefix already filtered out —
// the children a scheduler pins to split one heavy task into finer
// RunPrefix units. A conflicting prefix, or one that leaves no next
// position, yields nothing; once cancelled or past the deadline
// ExpandPrefix returns dst unchanged immediately.
func (E *Engine) ExpandPrefix(prefix, dst []uint32) []uint32 {
	e := &E.engine
	L := len(prefix)
	if L == 0 || L >= e.q.NumVertices() || e.pollHalt() {
		return dst
	}
	k := e.pinPrefix(prefix)
	if k == L {
		var lc []uint32
		if e.opts.Adaptive {
			lc = e.peekExtendable()
		} else {
			lc = e.computeLC(L, e.phi[L])
		}
		for _, w := range lc {
			if !e.visited[w] {
				dst = append(dst, w)
			}
		}
	}
	e.unpinPrefix(prefix[:k])
	return dst
}

// RunPrefix enumerates the search subtree below a pinned prefix — one
// scheduler task unit, at any length from a root candidate to the whole
// embedding. Results accumulate into Stats; the pinned positions are not
// search nodes. A conflicting prefix is a no-op. RunPrefix reports false
// when the search must stop (cancellation, deadline, the embedding cap
// or a sink that declined); the caller should then stop feeding tasks.
func (E *Engine) RunPrefix(prefix []uint32) bool {
	e := &E.engine
	if e.aborted {
		return false
	}
	L := len(prefix)
	if L == 0 || L > e.q.NumVertices() {
		return true
	}
	k := e.pinPrefix(prefix)
	if k == L {
		if e.opts.Adaptive {
			e.adaptiveRec(L)
		} else {
			e.runFS(L)
		}
	}
	e.unpinPrefix(prefix[:k])
	return !e.aborted
}

type engine struct {
	q, g  *graph.Graph
	cand  [][]uint32
	space *candspace.Space
	phi   []graph.Vertex
	opts  Options

	pos    []int            // query vertex -> position in phi
	bwd    [][]graph.Vertex // per depth: backward neighbors of phi[depth]
	parent []graph.Vertex   // per depth: designated parent (NoVertex at roots)

	// VF2++ cutoff requirements: per depth, the labels (with counts)
	// among the forward neighbors of phi[depth].
	fwdReq  [][]labelNeed
	counter *graph.LabelCounter

	embedding []uint32 // per query vertex
	candIdx   []int    // per query vertex: index of embedding in cand[u]
	mapped    []bool   // per query vertex
	visited   []bool   // per data vertex

	// symPeers[u] lists u's co-class members under symmetry breaking;
	// symPos[u] is u's position within its class (-1 when unclassed).
	symPeers [][]graph.Vertex
	symPos   []int

	lcBuf    [][]uint32            // per depth local-candidate buffer
	run      []uint32              // leafLevel's scratch run (at most timeCheckInterval long)
	sel      intersect.Selector    // kernel dispatcher (owns k-way scratch)
	setsBuf  [][]uint32            // transient argument buffer for Selector.Many
	viewsBuf []intersect.BlockView // transient block views paralleling setsBuf
	useViews bool                  // space has a materialized block layout

	deadline    time.Time
	clockTicker int
	aborted     bool
	prof        *SearchProfile

	fullMask bitset.Mask64
	stats    Stats

	// adaptive mode state (see adaptive.go)
	adaptive adaptiveState
}

type labelNeed struct {
	label graph.Label
	count int32
}

// prepare computes per-depth backward neighbor lists and designated
// parents, and validates that every non-initial order prefix is
// connected.
func (e *engine) prepare() error {
	n := e.q.NumVertices()
	e.bwd = make([][]graph.Vertex, n)
	e.parent = make([]graph.Vertex, n)
	for depth, u := range e.phi {
		e.parent[depth] = graph.NoVertex
		for _, un := range e.q.Neighbors(u) {
			if e.pos[un] < depth {
				e.bwd[depth] = append(e.bwd[depth], un)
			}
		}
		if depth > 0 && len(e.bwd[depth]) == 0 && !e.opts.Adaptive {
			return fmt.Errorf("enumerate: order prefix of length %d is disconnected at u%d", depth+1, u)
		}
		// Designated parent: prefer a backward neighbor whose pair is
		// materialized in the space (matters for the tree-edge variant),
		// falling back to the earliest-positioned backward neighbor.
		for _, un := range e.bwd[depth] {
			if e.space != nil && e.space.HasPair(un, u) {
				e.parent[depth] = un
				break
			}
		}
		if e.parent[depth] == graph.NoVertex && len(e.bwd[depth]) > 0 {
			e.parent[depth] = e.bwd[depth][0]
		}
	}
	if e.opts.VF2PPRules {
		e.counter = graph.NewLabelCounter(graph.MaxLabelOf(e.q, e.g))
		e.fwdReq = make([][]labelNeed, n)
		for depth, u := range e.phi {
			e.counter.Reset()
			for _, un := range e.q.Neighbors(u) {
				if e.pos[un] > depth {
					e.counter.Add(e.q.Label(un))
				}
			}
			for _, l := range e.counter.Touched() {
				e.fwdReq[depth] = append(e.fwdReq[depth], labelNeed{l, e.counter.Count(l)})
			}
		}
	}
	if len(e.opts.SymmetryClasses) > 0 {
		e.symPeers = make([][]graph.Vertex, n)
		e.symPos = make([]int, n)
		for i := range e.symPos {
			e.symPos[i] = -1
		}
		for _, class := range e.opts.SymmetryClasses {
			for i, u := range class {
				if int(u) >= n || e.symPos[u] >= 0 {
					return fmt.Errorf("enumerate: invalid symmetry classes (vertex %d out of range or repeated)", u)
				}
				e.symPos[u] = i
				for j, up := range class {
					if j != i {
						e.symPeers[u] = append(e.symPeers[u], up)
					}
				}
			}
		}
	}
	if e.opts.Adaptive {
		e.initAdaptive()
	}
	// Kernel dispatch: IntersectBlock pins the block kernel (the Figure
	// 10 arm — Options.Kernel is ignored there); Intersect follows the
	// configured policy. Without a materialized block layout the
	// adaptive policy degrades to exactly the Hybrid merge/gallop
	// switch.
	pol := e.opts.Kernel
	if e.opts.Local == IntersectBlock {
		pol = intersect.PolicyBlock
	}
	e.sel.SetPolicy(pol)
	e.useViews = e.space != nil && e.space.HasBlocks()
	return nil
}

// symViolator returns the mapped co-class peer whose assignment makes v
// an out-of-order choice for u (class members must carry increasing
// data-vertex ids), or NoVertex if v is admissible.
func (e *engine) symViolator(u graph.Vertex, v uint32) graph.Vertex {
	if e.symPeers == nil {
		return graph.NoVertex
	}
	for _, p := range e.symPeers[u] {
		if !e.mapped[p] {
			continue
		}
		if e.symPos[p] < e.symPos[u] {
			if e.embedding[p] >= v {
				return p
			}
		} else if e.embedding[p] <= v {
			return p
		}
	}
	return graph.NoVertex
}

// enterNode accounts a search node and polls limits. It returns false if
// the search must stop.
func (e *engine) enterNode() bool {
	e.stats.Nodes++
	e.clockTicker++
	if e.clockTicker >= timeCheckInterval {
		e.clockTicker = 0
		return !e.pollHalt()
	}
	return true
}

// handOver passes run — data vertices that each complete the partial
// embedding at the open position u, in emission order — to the sink and
// accounts the embeddings it took: all of them when there is no sink. A
// sink that takes fewer, or reaching the embedding cap, stops the search.
// Callers never offer more than the cap has left, so the count cannot
// pass it.
func (e *engine) handOver(u graph.Vertex, run []uint32) int {
	taken := len(run)
	if e.opts.OnRun != nil {
		taken = e.opts.OnRun(e.embedding, u, run)
	}
	e.stats.Embeddings += uint64(taken)
	if taken < len(run) {
		e.aborted = true
	} else if e.opts.MaxEmbeddings > 0 && e.stats.Embeddings >= e.opts.MaxEmbeddings {
		e.stats.LimitHit = true
		e.aborted = true
	}
	return taken
}

// emitPinned hands over the embedding an entry point pinned whole, as a
// run of one: with every position mapped any of them can play the open
// one, and the run is that position itself, so a sink writing
// mapping[u] = vs[0] writes what is there. The search itself finishes in
// leafLevel and never gets here.
func (e *engine) emitPinned() {
	u := e.phi[len(e.phi)-1]
	e.handOver(u, e.embedding[u:u+1])
}

// assign maps query vertex u to data vertex v, recording the candidate
// index when the auxiliary structure is in use. Homomorphism mode skips
// the injectivity bookkeeping.
func (e *engine) assign(u graph.Vertex, v uint32) {
	e.embedding[u] = v
	e.mapped[u] = true
	if !e.opts.Homomorphism {
		e.visited[v] = true
	}
	if e.space != nil {
		e.candIdx[u] = e.space.CandidateIndex(u, v)
	}
}

func (e *engine) unassign(u graph.Vertex, v uint32) {
	e.mapped[u] = false
	if !e.opts.Homomorphism {
		e.visited[v] = false
	}
}

// runFS is the recursion of Algorithm 1 over a static order. The
// returned mask is the failing set of the subtree rooted at the current
// node; fullMask means "a match was found below (or nothing can be
// pruned)". The masks are maintained throughout and acted upon only
// when the failing-sets optimization is enabled, which also spares the
// plain search the one costly part of keeping them, the owner scan on a
// conflict.
func (e *engine) runFS(depth int) bitset.Mask64 {
	if !e.enterNode() {
		return e.fullMask
	}
	if depth == e.q.NumVertices() {
		if e.prof != nil {
			e.prof.Nodes[depth]++
		}
		e.emitPinned()
		return e.fullMask
	}
	u := e.phi[depth]
	var kpre intersect.KernelStats
	if e.prof != nil {
		kpre = e.sel.Stats()
	}
	lc := e.computeLC(depth, u)
	if e.prof != nil {
		e.prof.addKernelDelta(depth, kpre, e.sel.Stats())
		e.prof.Nodes[depth]++
		e.prof.Candidates[depth] += uint64(len(lc))
		if len(lc) == 0 {
			e.prof.EmptyLC[depth]++
		}
	}
	if len(lc) == 0 {
		// Emptyset class: the failure involves u and the vertices whose
		// mappings constrained LC.
		return nodeMask(0, u, e.bwd[depth])
	}
	if depth == e.q.NumVertices()-1 {
		return nodeMask(e.leafLevel(depth, u, lc), u, e.bwd[depth])
	}
	fs := e.opts.FailingSets
	var accum bitset.Mask64
	for _, v := range lc {
		var child bitset.Mask64
		if e.visited[v] {
			// Conflict class: u collides with the vertex already mapped
			// to v.
			if fs {
				child = bitset.Mask64(0).With(uint32(u)).With(uint32(e.ownerOf(v)))
			}
			if e.prof != nil {
				e.prof.Conflicts[depth]++
			}
		} else if p := e.symViolator(u, v); e.symPeers != nil && p != graph.NoVertex {
			// Symmetry violation: analogous to a conflict — the failure
			// involves u and the peer whose mapping orders v out.
			child = bitset.Mask64(0).With(uint32(u)).With(uint32(p))
			if e.prof != nil {
				e.prof.SymmetrySkips[depth]++
			}
		} else {
			if e.prof != nil {
				e.prof.Extended[depth]++
			}
			e.assign(u, v)
			child = e.runFS(depth + 1)
			e.unassign(u, v)
			if e.aborted {
				return e.fullMask
			}
		}
		if fs && child != e.fullMask && !child.Has(uint32(u)) {
			// The failure below does not involve u: every sibling
			// assignment of u fails identically, so skip them. If an
			// earlier sibling's subtree contained a match, this node
			// must still report fullMask so no ancestor prunes it away.
			if e.prof != nil {
				e.prof.FailingSetSkips[depth]++
			}
			if accum == e.fullMask {
				return e.fullMask
			}
			return child
		}
		accum = accum.Union(child)
	}
	// The set of local candidates iterated above is itself a function of
	// the backward neighbors' mappings: remapping one of them could
	// introduce candidates no child mask accounts for. The node's
	// failing set therefore always includes u and its backward
	// neighbors. (A full accum — match found — stays full.)
	return nodeMask(accum, u, e.bwd[depth])
}

// nodeMask adds u and its backward neighbors to a node's failing set.
func nodeMask(accum bitset.Mask64, u graph.Vertex, bwd []graph.Vertex) bitset.Mask64 {
	accum = accum.With(uint32(u))
	for _, un := range bwd {
		accum = accum.With(uint32(un))
	}
	return accum
}

// leafLevel finishes the last unmapped query vertex u in place, shared
// by runFS and adaptiveRec, without mapping u — nothing below the last
// level reads visited, mapped, candIdx or the adaptive pool. It filters
// lc by the conflict and symmetry checks of a full level (same profile
// counters, same failing-set masks) into a run of admissible data
// vertices, and hands the run over as soon as it is full: when it holds
// what the embedding cap has left — so no candidate past the last
// embedding is looked at, exactly where a per-embedding loop would have
// stopped — or timeCheckInterval vertices, and at the end of lc.
//
// It returns the union of the children's failing sets: {u, owner} for a
// conflict (left out when failing sets are off: nothing reads the mask
// then, and finding the owner is a scan), {u, peer} for a symmetry
// skip, fullMask once an embedding was emitted or the search aborted.
func (e *engine) leafLevel(depth int, u graph.Vertex, lc []uint32) bitset.Mask64 {
	var accum bitset.Mask64
	run, room := e.run[:0], e.runRoom()
	for _, v := range lc {
		if e.visited[v] {
			if e.prof != nil {
				e.prof.Conflicts[depth]++
			}
			if e.opts.FailingSets {
				accum = accum.With(uint32(u)).With(uint32(e.ownerOf(v)))
			}
			continue
		}
		if e.symPeers != nil {
			if p := e.symViolator(u, v); p != graph.NoVertex {
				if e.prof != nil {
					e.prof.SymmetrySkips[depth]++
				}
				accum = accum.With(uint32(u)).With(uint32(p))
				continue
			}
		}
		run = append(run, v)
		if len(run) == room {
			if !e.leafRun(depth, u, run) {
				break
			}
			run, room = run[:0], e.runRoom()
			accum = e.fullMask
		}
	}
	if len(run) > 0 && !e.aborted {
		e.leafRun(depth, u, run)
		accum = e.fullMask
	}
	e.run = run[:0]
	if e.aborted {
		return e.fullMask
	}
	return accum
}

// runRoom is the longest run leafLevel may hand over next: what the
// embedding cap has left, and never more than timeCheckInterval — which
// bounds both the scratch run and the nodes between two polls — or than
// Options.MaxRun.
func (e *engine) runRoom() int {
	room := timeCheckInterval
	if e.opts.MaxRun > 0 && e.opts.MaxRun < room {
		room = e.opts.MaxRun
	}
	if limit := e.opts.MaxEmbeddings; limit > 0 && limit-e.stats.Embeddings < uint64(room) {
		room = int(limit - e.stats.Embeddings)
	}
	return room
}

// leafRun hands one run of leafLevel over and accounts it. Every vertex
// the sink took is one search node and one embedding, as if each had
// been a recursive call: Stats.Nodes, Stats.Embeddings, the ticker and
// the profile's Extended[depth] and Nodes[depth+1] (leaves carry no LC
// but are search nodes: counting them keeps sum(Nodes) == Stats.Nodes
// and Nodes[n] == Stats.Embeddings, the reconciliation EXPLAIN relies
// on) advance by the number taken, in one step. The cancel/deadline
// poll comes before a run that would carry the ticker to
// timeCheckInterval, not after it, so no more nodes pass between two
// polls than when each leaf ticked on its own; a run stopped by the poll
// counts nothing. leafRun reports false if the search must stop.
func (e *engine) leafRun(depth int, u graph.Vertex, run []uint32) bool {
	if e.clockTicker+len(run) >= timeCheckInterval {
		e.clockTicker = 0
		if e.pollHalt() {
			return false
		}
	}
	taken := e.handOver(u, run)
	e.stats.Nodes += uint64(taken)
	e.clockTicker += taken
	if e.prof != nil {
		e.prof.Extended[depth] += uint64(taken)
		e.prof.Nodes[depth+1] += uint64(taken)
	}
	return !e.aborted
}

// ownerOf returns the query vertex currently mapped to data vertex v.
// Only called on conflicts, so a linear scan over the (small) query is
// fine and avoids a |V(G)|-sized reverse index.
func (e *engine) ownerOf(v uint32) graph.Vertex {
	for u := 0; u < e.q.NumVertices(); u++ {
		if e.mapped[u] && e.embedding[u] == v {
			return graph.Vertex(u)
		}
	}
	// Unreachable for a consistent engine state.
	panic("enumerate: conflict vertex has no owner")
}
