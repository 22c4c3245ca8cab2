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
// per-task calls (RunRoot, RunRootPair) allocate nothing.
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
	} else if e.opts.FailingSets {
		e.runFS(0)
	} else {
		e.runPlain(0)
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
	if e.opts.Adaptive {
		e.adaptive.pool = e.adaptive.pool[:0]
	}
}

// SetDeadline arms (or, with a zero time, disarms) the wall-clock
// deadline for subsequent task runs. A parallel scheduler sets one
// deadline for the whole run instead of per task.
func (E *Engine) SetDeadline(t time.Time) { E.engine.deadline = t }

// Stats returns the engine's cumulative statistics: a full Run resets
// them, while the per-task entry points (RunRoot, RunRootPair)
// accumulate across calls so a worker's tally is read once at the end.
func (E *Engine) Stats() *Stats {
	E.engine.stats.Kernels = E.engine.sel.Stats()
	return &E.engine.stats
}

// Stopped reports whether the engine has aborted — cancellation,
// deadline, an OnMatch abort, or the embedding cap. Schedulers probing
// through ExpandRoot/ExpandPrefix check it to tell an empty expansion
// from a halted one.
func (E *Engine) Stopped() bool { return E.engine.aborted }

// ResetStats clears the cumulative statistics and the abort flag without
// touching the armed deadline. Schedulers call it once per worker before
// the task loop.
func (E *Engine) ResetStats() {
	deadline := E.engine.deadline
	E.engine.resetRun()
	E.engine.deadline = deadline
}

// RunRoot enumerates the search subtree with the order's start vertex
// pre-assigned to the data vertex v — one scheduler task unit. Results
// accumulate into Stats. It reports false when the search must stop
// (cancellation, deadline, or an OnMatch abort); the caller should then
// stop feeding tasks.
func (E *Engine) RunRoot(v uint32) bool {
	e := &E.engine
	if e.aborted {
		return false
	}
	root := e.phi[0]
	if e.opts.Adaptive {
		a := &e.adaptive
		a.pool = a.pool[:0]
		a.lcOf[root] = append(a.lcOf[root][:0], v)
		a.weightOf[root] = e.activationWeight(root, a.lcOf[root])
		a.pool = append(a.pool, root)
		e.adaptiveRec(0)
		return !e.aborted
	}
	e.assign(root, v)
	if e.opts.FailingSets {
		e.runFS(1)
	} else {
		e.runPlain(1)
	}
	e.unassign(root, v)
	return !e.aborted
}

// probeHalt polls the cancellation flag and deadline once. The probe
// entry points (ExpandRoot, ExpandPrefix, ExpandAdaptiveRoot) expand no
// search nodes, so enterNode's amortized ticker never fires for them;
// each probe call polls directly instead — a degenerate root expansion
// must respond to ctx cancellation and Limits.TimeLimit like any other
// search work.
func (e *engine) probeHalt() bool {
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

// ExpandRoot computes the depth-1 local candidates reached when the
// start vertex maps to v, appended to dst — the task-splitting probe a
// scheduler uses to break one heavy root candidate into finer (root,
// second) task units for RunRootPair. Candidates conflicting with v are
// already filtered out. Only static orders can be pre-split this way; in
// adaptive mode ExpandRoot returns dst unchanged (see
// ExpandAdaptiveRoot). Once cancelled or past the deadline it returns
// dst unchanged immediately.
func (E *Engine) ExpandRoot(v uint32, dst []uint32) []uint32 {
	e := &E.engine
	if e.opts.Adaptive || e.q.NumVertices() < 2 || e.probeHalt() {
		return dst
	}
	root := e.phi[0]
	e.assign(root, v)
	for _, w := range e.computeLC(1, e.phi[1]) {
		if !e.visited[w] {
			dst = append(dst, w)
		}
	}
	e.unassign(root, v)
	return dst
}

// ExpandPrefix generalizes ExpandRoot to deeper pins: with the order's
// first len(prefix) vertices mapped to prefix, it appends the local
// candidates of the next order vertex to dst — the recursive splitting
// probe. A prefix whose assignments conflict yields no candidates. The
// same cancellation contract as ExpandRoot applies.
func (E *Engine) ExpandPrefix(prefix, dst []uint32) []uint32 {
	e := &E.engine
	L := len(prefix)
	if e.opts.Adaptive || L == 0 || L >= e.q.NumVertices() || e.probeHalt() {
		return dst
	}
	assigned := 0
	for i, v := range prefix {
		if i > 0 && e.visited[v] {
			break
		}
		e.assign(e.phi[i], v)
		assigned++
	}
	if assigned == L {
		for _, w := range e.computeLC(L, e.phi[L]) {
			if !e.visited[w] {
				dst = append(dst, w)
			}
		}
	}
	for i := assigned - 1; i >= 0; i-- {
		e.unassign(e.phi[i], prefix[i])
	}
	return dst
}

// RunPrefix enumerates the subtree with the order's first len(prefix)
// positions pre-assigned to prefix — the task unit produced by the
// recursive cost-model splitter. Prefixes of length 1 and 2 behave like
// RunRoot and RunRootPair. A conflicting prefix (as RunRootPair, only a
// caller fabricating tasks produces one) is a no-op. The same stop
// contract as RunRoot applies.
func (E *Engine) RunPrefix(prefix []uint32) bool {
	e := &E.engine
	if e.aborted {
		return false
	}
	L := len(prefix)
	if L == 0 || L > e.q.NumVertices() || e.opts.Adaptive {
		return true
	}
	assigned := 0
	ok := true
	for i, v := range prefix {
		u := e.phi[i]
		if i > 0 {
			if e.visited[v] {
				ok = false
				break
			}
			if e.symPeers != nil && e.symViolator(u, v) != graph.NoVertex {
				ok = false
				break
			}
		}
		e.assign(u, v)
		assigned++
	}
	if ok {
		if e.opts.FailingSets {
			e.runFS(L)
		} else {
			e.runPlain(L)
		}
	}
	for i := assigned - 1; i >= 0; i-- {
		e.unassign(e.phi[i], prefix[i])
	}
	return !e.aborted
}

// RunRootPair enumerates the subtree with the first two order positions
// pre-assigned to (v, w) — the fine-grained task unit produced by
// ExpandRoot. The same stop contract as RunRoot applies.
func (E *Engine) RunRootPair(v, w uint32) bool {
	e := &E.engine
	if e.aborted {
		return false
	}
	root, second := e.phi[0], e.phi[1]
	e.assign(root, v)
	if e.visited[w] {
		// v == w conflict; ExpandRoot filters these, so only a caller
		// fabricating tasks gets here.
		e.unassign(root, v)
		return true
	}
	if e.symPeers != nil && e.symViolator(second, w) != graph.NoVertex {
		e.unassign(root, v)
		return true
	}
	e.assign(second, w)
	if e.opts.FailingSets {
		e.runFS(2)
	} else {
		e.runPlain(2)
	}
	e.unassign(second, w)
	e.unassign(root, v)
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
		if e.opts.Cancel != nil && e.opts.Cancel.Load() {
			e.aborted = true
			return false
		}
		if !e.deadline.IsZero() && time.Now().After(e.deadline) {
			e.stats.TimedOut = true
			e.aborted = true
			return false
		}
	}
	return true
}

// emit records a completed embedding. It returns false if the search
// must stop.
func (e *engine) emit() bool {
	e.stats.Embeddings++
	if e.opts.OnMatch != nil && !e.opts.OnMatch(e.embedding) {
		e.aborted = true
		return false
	}
	if e.opts.MaxEmbeddings > 0 && e.stats.Embeddings >= e.opts.MaxEmbeddings {
		e.stats.LimitHit = true
		e.aborted = true
		return false
	}
	return true
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

// runPlain is the recursion of Algorithm 1 without failing sets. It
// returns false when the search was aborted by a limit.
func (e *engine) runPlain(depth int) bool {
	if !e.enterNode() {
		return false
	}
	if depth == e.q.NumVertices() {
		// Only an entry point that pinned the whole embedding gets here;
		// the search itself finishes in leafLevel.
		if e.prof != nil {
			e.prof.Nodes[depth]++
		}
		return e.emit()
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
	if depth == e.q.NumVertices()-1 {
		e.leafLevel(depth, u, lc)
		return !e.aborted
	}
	for _, v := range lc {
		if e.visited[v] {
			if e.prof != nil {
				e.prof.Conflicts[depth]++
			}
			continue
		}
		if e.symPeers != nil && e.symViolator(u, v) != graph.NoVertex {
			if e.prof != nil {
				e.prof.SymmetrySkips[depth]++
			}
			continue
		}
		if e.prof != nil {
			e.prof.Extended[depth]++
		}
		e.assign(u, v)
		cont := e.runPlain(depth + 1)
		e.unassign(u, v)
		if !cont {
			return false
		}
	}
	return true
}

// runFS is the recursion with failing-sets pruning. The returned mask is
// the failing set of the subtree rooted at the current node; fullMask
// means "a match was found below (or nothing can be pruned)".
func (e *engine) runFS(depth int) bitset.Mask64 {
	if !e.enterNode() {
		return e.fullMask
	}
	if depth == e.q.NumVertices() {
		// Pinned whole embedding, as in runPlain.
		if e.prof != nil {
			e.prof.Nodes[depth]++
		}
		e.emit()
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
	var accum bitset.Mask64
	for _, v := range lc {
		var child bitset.Mask64
		if e.visited[v] {
			// Conflict class: u collides with the vertex already mapped
			// to v.
			child = bitset.Mask64(0).With(uint32(u)).With(uint32(e.ownerOf(v)))
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
		if child != e.fullMask && !child.Has(uint32(u)) {
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
// by runPlain, runFS and adaptiveRec: every admissible v of lc is one
// search node and one embedding, with the conflict and symmetry checks,
// the node accounting (enterNode, so Stats.Nodes and the cancel/deadline
// ticker advance exactly as a recursive call would) and the profile
// counters of a full level, but without mapping u — nothing below the
// last level reads visited, mapped, candIdx or the adaptive pool.
//
// It returns the union of the children's failing sets: {u, owner} for a
// conflict (left out when failing sets are off: nothing reads the mask
// then, and finding the owner is a scan), {u, peer} for a symmetry
// skip, fullMask once an embedding was emitted or the search aborted.
func (e *engine) leafLevel(depth int, u graph.Vertex, lc []uint32) bitset.Mask64 {
	var accum bitset.Mask64
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
		if e.prof != nil {
			e.prof.Extended[depth]++
		}
		if !e.enterNode() {
			return e.fullMask
		}
		if e.prof != nil {
			// Leaves carry no LC but are search nodes: counting them keeps
			// sum(Nodes) == Stats.Nodes and Nodes[n] == Stats.Embeddings,
			// the reconciliation EXPLAIN relies on.
			e.prof.Nodes[depth+1]++
		}
		e.embedding[u] = v
		if !e.emit() {
			return e.fullMask
		}
		accum = e.fullMask
	}
	return accum
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
