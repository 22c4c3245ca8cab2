package enumerate

import (
	"fmt"
	"slices"
	"time"

	"subgraphmatching/internal/bitset"
	"subgraphmatching/internal/candspace"
	"subgraphmatching/internal/graph"
	"subgraphmatching/internal/intersect"
)

// timeCheckInterval is how many search nodes pass between deadline
// checks; checking the clock at every node would dominate small queries.
const timeCheckInterval = 1 << 12

// Engine is a reusable enumeration engine bound to one (query, data,
// candidates, space, order) tuple and its plan-scoped options (local
// candidates, kernel policy, failing sets, adaptive order and weights,
// VF2++ rules, homomorphism, symmetry classes). All per-run scratch
// state — the partial embedding, per-depth local-candidate buffers,
// intersection intermediates, failing-set masks — is allocated once at
// construction and re-seeded on each run, so repeated runs and per-task
// calls (RunPrefix) allocate nothing. The visited marks, one per data
// vertex, are the data graph's (graph.Graph.Marks): an engine holds
// them from construction or Rearm until Release. Callers that enumerate
// the same tuple repeatedly — parallel workers running many tasks, a
// cached plan serving many requests — construct an Engine once and
// reuse it, readying it for each request with Rearm and releasing it
// after.
//
// An Engine is not safe for concurrent use; parallel callers hold one
// engine per worker over shared read-only inputs.
type Engine struct {
	engine
}

// NewEngine validates the inputs and builds a reusable engine; its Run
// enumerates every subgraph isomorphism from q to g following the
// matching order phi (a permutation of V(q) whose every prefix is
// connected), using the candidate sets cand and, for the auxiliary-
// structure-based local candidate methods, the candidate space. In
// adaptive mode (opts.Adaptive), phi is the BFS order delta that defines
// the query DAG and the mapping order is chosen per search node, as
// DP-iso does. The candidate sets, space, and order are captured by
// reference and must stay unmodified (they may be shared, read-only,
// across engines); a space must have been built over cand, whose
// positions it holds.
func NewEngine(q, g *graph.Graph, cand [][]uint32, space *candspace.Space, phi []graph.Vertex, opts Options) (*Engine, error) {
	n := q.NumVertices()
	if len(phi) != n {
		return nil, fmt.Errorf("enumerate: order has %d vertices, query has %d", len(phi), n)
	}
	if len(cand) != n {
		return nil, fmt.Errorf("enumerate: got %d candidate sets for %d query vertices", len(cand), n)
	}
	if err := CheckOptions(n, opts); err != nil {
		return nil, err
	}
	switch opts.Local {
	case TreeEdge, Intersect:
		if space == nil {
			return nil, fmt.Errorf("enumerate: %v local candidates require a candidate space", opts.Local)
		}
	}

	E := &Engine{engine: engine{
		q: q, g: g, cand: cand, space: space, phi: phi, opts: opts,
		pos:       make([]int, n),
		embedding: make([]uint32, n),
		candIdx:   make([]int, n),
		ids:       make([][]uint32, n),
		mapped:    make([]bool, n),
		visited:   g.Marks(),
		lcBuf:     make([][]uint32, n),
		levels:    make([][]uint32, n),
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
	if opts.Local != Direct && n > 0 {
		copy(e.ids, cand)
		e.rootLC = make([]uint32, len(cand[phi[0]]))
		for i := range e.rootLC {
			e.rootLC[i] = uint32(i)
		}
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
// candidates. The returned Stats are owned by the engine and overwritten
// by the next Run or Rearm call.
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
	e.first = 0
	e.search(0)
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
	e.cuts = 0
	e.clockTicker = 0
	e.budgetPoll()
	e.deadline = time.Time{}
	e.sel.ResetStats()
}

// budgetPoll brings the next poll forward to where the node budget
// (Options.MaxNodes) runs out, when that comes before the ticker's own
// round, so the budget is checked when it is due at no cost to the
// nodes in between.
func (e *engine) budgetPoll() {
	if b := e.opts.MaxNodes; b > e.stats.Nodes && b-e.stats.Nodes < timeCheckInterval {
		e.clockTicker = timeCheckInterval - int(b-e.stats.Nodes)
	}
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

// Rearm readies the engine for a new request over the same tuple: it
// swaps in opts' request-scoped fields — MaxEmbeddings, TimeLimit,
// Cancel, OnRun, MaxRun, MaxNodes, Donor and Profile — clears the
// statistics, the abort state and the task deadline, and takes visited
// marks from the data graph if Release gave them back. The plan-scoped
// fields of opts are ignored: they are the engine's for life. A
// profiled request gets a profile of its own, so the previous request's
// Stats.Profile stays with whoever holds it. The search state needs no
// clearing: every search path unwinds its marks, even on abort.
func (E *Engine) Rearm(opts Options) {
	e := &E.engine
	o := &e.opts
	o.MaxEmbeddings, o.TimeLimit, o.Cancel = opts.MaxEmbeddings, opts.TimeLimit, opts.Cancel
	o.OnRun, o.MaxRun, o.Donor, o.Profile = opts.OnRun, opts.MaxRun, opts.Donor, opts.Profile
	o.MaxNodes = opts.MaxNodes
	e.prof = nil
	if opts.Profile {
		e.prof = newSearchProfile(e.q.NumVertices())
	}
	if e.visited == nil {
		e.visited = e.g.Marks()
	}
	e.resetRun()
}

// Release ends a request on the engine: its visited marks go back to
// the data graph for the next search to reuse, and the request's sink,
// cancel flag, donor and profile are dropped, which an idle engine must
// not keep alive. Read the statistics first. Release only after a run
// that returned: a search that panicked may have left marks set. The
// engine stays bound to its tuple; Rearm readies it for another
// request.
func (E *Engine) Release() {
	e := &E.engine
	o := &e.opts
	o.OnRun, o.Cancel, o.Donor = nil, nil, nil
	e.prof, e.stats.Profile = nil, nil
	if e.visited != nil {
		e.g.PutMarks(e.visited)
		e.visited = nil
	}
}

// pollHalt polls the cancellation flag, the deadline and the node
// budget once. The search calls it when clockTicker comes round
// (enterNode, leafRun).
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
	if e.opts.MaxNodes > 0 && e.stats.Nodes >= e.opts.MaxNodes {
		e.stats.OverBudget = true
		e.aborted = true
		return true
	}
	e.budgetPoll()
	return false
}

// pin maps position i of a pinned prefix to the data vertex v. The
// query vertex at position i is the one the search would map there:
// phi[i] under a static order, and under DP-iso's runtime order the
// vertex extendable picks once prefix[:i] is mapped — a function of the
// prefix alone, so a donor and the task it donated re-derive the same
// vertex. A pinned position is not a search node: nothing is counted
// except, when profiling, the kernels extendable ran. pin reports false,
// leaving the position unmapped, when v conflicts with an earlier
// position or breaks the symmetry order — a donated candidate is not
// checked against the prefix, so the search skips such a task here as
// it would have skipped the candidate — or when v is not a candidate of
// the vertex. Finding v's position in C(u) is the one binary search a
// pinned position costs.
func (e *engine) pin(i int, v uint32) bool {
	u := e.phi[i]
	if e.opts.Adaptive {
		u = e.extendable(i)
	}
	x, ok := v, true
	if ids := e.ids[u]; ids != nil {
		var ci int
		ci, ok = slices.BinarySearch(ids, v)
		x = uint32(ci)
	}
	if !ok || e.visited[v] || (e.symPeers != nil && e.symViolator(u, v) != graph.NoVertex) {
		return false
	}
	e.assign(u, x, v)
	return true
}

// unpin undoes a successful pin(i, v); positions unwind last to first.
func (e *engine) unpin(i int, v uint32) {
	e.unassign(e.vertexAt(i), v)
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
		e.first = L
		e.search(L)
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

	// The 𝒜 pairs the search reads, resolved once: per depth,
	// (bwd[depth][i] → phi[depth]) for each i (nil without a space), and
	// for the tree-edge method (parent[depth] → phi[depth]).
	bwdPairs    [][]candspace.Pair
	parentPairs []candspace.Pair

	// VF2++ cutoff requirements: per depth, the labels (with counts)
	// among the forward neighbors of phi[depth].
	fwdReq [][]labelNeed
	// needHave counts, per need of the depth vf2ppOK checks, the
	// unmapped neighbors of the candidate that meet it so far.
	needHave []int32

	embedding []uint32 // per query vertex
	candIdx   []int    // per query vertex: position of embedding in cand[u]
	mapped    []bool   // per query vertex
	visited   []bool   // per data vertex: the data graph's Marks, nil once released

	// ids[u] translates u's local candidates to data vertices: cand[u]
	// for the methods whose local candidates are positions in C(u)
	// (Scan, TreeEdge, Intersect), nil for Direct, whose local
	// candidates are data vertices already.
	ids [][]uint32
	// rootLC is the root level's local candidates under those methods:
	// every position of C(phi[0]).
	rootLC []uint32

	// symPeers[u] lists u's co-class members under symmetry breaking;
	// symPos[u] is u's position within its class (-1 when unclassed).
	symPeers [][]graph.Vertex
	symPos   []int

	lcBuf    [][]uint32            // per depth local-candidate buffer
	run      []uint32              // leafLevel's scratch run (at most timeCheckInterval long)
	sel      intersect.Selector    // kernel dispatcher (owns k-way scratch)
	setsBuf  [][]uint32            // transient argument buffer for Selector.Many
	viewsBuf []intersect.BlockView // transient block views paralleling setsBuf
	useViews bool                  // the block policy over a space with a block layout

	// Under a Donor, levels holds per interior depth on the current path
	// the local candidates the node there iterates — cut by donate to
	// what the node keeps once the rest went to another worker. cuts
	// counts the cut levels above the current node whose nodes have not
	// yet seen it, so a run that never donates tests one integer per
	// child. first is the running task's first free depth: the shallowest
	// level donate may cut.
	levels    [][]uint32
	cuts      int
	first     int
	donPrefix []uint32 // donate's scratch arguments to Donor.Give
	donRest   []uint32

	deadline    time.Time
	clockTicker int
	aborted     bool
	prof        *SearchProfile

	fullMask bitset.Mask64
	stats    Stats

	// adaptive mode state (see adaptive.go)
	adaptive adaptiveState

	// The counted tail (see tail.go): its first depth, past the emit
	// depth when the plan has none, and its label classes.
	tail        int
	tailClasses []tailClass
}

type labelNeed struct {
	label graph.Label
	count int32
}

// addNeed counts one more forward neighbor labelled l: the needs of a
// depth are its forward neighbors' distinct labels, in the order they
// first occur, each with how many carry it. Only the query's labels are
// counted, so nothing is sized by the largest label of either graph.
func addNeed(needs []labelNeed, l graph.Label) []labelNeed {
	for i := range needs {
		if needs[i].label == l {
			needs[i].count++
			return needs
		}
	}
	return append(needs, labelNeed{l, 1})
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
		if depth > 0 && len(e.bwd[depth]) == 0 {
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
	if e.space != nil {
		total := 0
		for _, bwd := range e.bwd {
			total += len(bwd)
		}
		all := make([]candspace.Pair, total) // every depth's pairs, in one array
		e.bwdPairs = make([][]candspace.Pair, n)
		for depth, u := range e.phi {
			k := len(e.bwd[depth])
			e.bwdPairs[depth], all = all[:k:k], all[k:]
			for i, un := range e.bwd[depth] {
				p := e.space.Pair(un, u)
				if p == (candspace.Pair{}) && e.opts.Local == Intersect {
					return fmt.Errorf("enumerate: the candidate space holds no pair (u%d, u%d) for depth %d to intersect", un, u, depth)
				}
				e.bwdPairs[depth][i] = p
			}
		}
	}
	if e.opts.Local == TreeEdge {
		e.parentPairs = make([]candspace.Pair, n)
		for depth, p := range e.parent {
			if p == graph.NoVertex {
				continue
			}
			if e.parentPairs[depth] = e.space.Pair(p, e.phi[depth]); e.parentPairs[depth] == (candspace.Pair{}) {
				return fmt.Errorf("enumerate: the candidate space holds no pair (u%d, u%d) from depth %d's tree parent", p, e.phi[depth], depth)
			}
		}
	}
	if e.opts.VF2PPRules {
		e.fwdReq = make([][]labelNeed, n)
		widest := 0
		for depth, u := range e.phi {
			for _, un := range e.q.Neighbors(u) {
				if e.pos[un] > depth {
					e.fwdReq[depth] = addNeed(e.fwdReq[depth], e.q.Label(un))
				}
			}
			widest = max(widest, len(e.fwdReq[depth]))
		}
		e.needHave = make([]int32, widest)
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
	e.prepareTail()
	// Kernel dispatch follows the configured policy. Only the block
	// policy reads block views, so only it gathers them.
	e.sel.SetPolicy(e.opts.Kernel)
	e.useViews = e.opts.Kernel == intersect.PolicyBlock && e.space != nil && e.space.HasBlocks()
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

// assign maps query vertex u to the local candidate x, data vertex v,
// recording x as the position that 𝒜 lookups from u read (meaningless,
// and unread, under Direct). Homomorphism mode skips the injectivity
// bookkeeping.
func (e *engine) assign(u graph.Vertex, x, v uint32) {
	e.embedding[u] = v
	e.candIdx[u] = int(x)
	e.mapped[u] = true
	if !e.opts.Homomorphism {
		e.visited[v] = true
	}
}

func (e *engine) unassign(u graph.Vertex, v uint32) {
	e.mapped[u] = false
	if !e.opts.Homomorphism {
		e.visited[v] = false
	}
}

// search is Algorithm 1's recursion, for a static order and DP-iso's
// adaptive one alike: the two differ only in NextVertex, at node entry.
// The returned mask is the failing set of the subtree rooted at the
// current node; fullMask means "a match was found below (or nothing can
// be pruned)". The masks are maintained throughout and acted upon only
// when the failing-sets optimization is enabled, which also spares the
// plain search the one costly part of keeping them, the owner scan on a
// conflict.
func (e *engine) search(depth int) bitset.Mask64 {
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
	if depth == e.tail && e.opts.OnRun == nil {
		return e.countTail(depth)
	}
	// NextVertex: u, its position pu in phi (delta under DP-iso's order,
	// so u's backward neighbours are bwd[pu] either way) and its LC.
	var u graph.Vertex
	var lc []uint32
	var kpre intersect.KernelStats
	if e.prof != nil {
		kpre = e.sel.Stats()
	}
	pu := depth
	if !e.opts.Adaptive {
		u = e.phi[depth]
		lc = e.computeLC(depth, u)
	} else {
		u = e.extendable(depth)
		lc, pu = e.adaptive.lcOf[u], e.pos[u]
		if e.prof != nil {
			kpre = e.sel.Stats() // extendable charged its kernels to depth−1
		}
	}
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
		return nodeMask(0, u, e.bwd[pu])
	}
	if depth == e.q.NumVertices()-1 {
		return nodeMask(e.leafLevel(depth, u, lc), u, e.bwd[pu])
	}
	// VF2++'s cutoff makes LC depend on every mapped vertex, not only on
	// u's backward neighbours, so no failing set is sound under it.
	fs := e.opts.FailingSets && !e.opts.VF2PPRules
	ids := e.ids[u]
	if d := e.opts.Donor; d != nil {
		e.levels[depth] = lc
		if d.Idle.Load() > 0 {
			e.donate(depth)
			lc = e.levels[depth]
		}
	}
	var accum bitset.Mask64
	for _, x := range lc {
		v := x
		if ids != nil {
			v = ids[x]
		}
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
			e.assign(u, x, v)
			child = e.search(depth + 1)
			e.unassign(u, v)
			if e.aborted {
				return e.fullMask
			}
			if e.cuts > 0 && len(e.levels[depth]) < len(lc) {
				// The rest of the level was donated (see donate for why
				// the partial mask is sound).
				e.cuts--
				return nodeMask(accum.Union(child), u, e.bwd[pu])
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
	return nodeMask(accum, u, e.bwd[pu])
}

// donate offers the unexplored candidates of the shallowest open level —
// from the task's first free depth down to depth, the current node,
// which keeps its first candidate — to the Donor, and cuts the level at
// what it keeps if Give takes them. A level above depth is open while
// its mapped candidate is not its last; the engine keeps no cursor, so
// the candidate's place is a binary search of candIdx in the level's
// ascending local candidates.
//
// The cut level's node returns the failing set of the children it
// explored, which prunes nothing: every level above it was on its last
// candidate when it was cut, so no ancestor has a sibling left to skip,
// and RunPrefix discards the mask at the top.
func (e *engine) donate(depth int) {
	for k := e.first; k <= depth; k++ {
		lc, u := e.levels[k], e.vertexAt(k)
		keep := 1
		if k < depth {
			i, _ := slices.BinarySearch(lc, uint32(e.candIdx[u]))
			keep = i + 1
		}
		if keep >= len(lc) {
			continue
		}
		prefix, rest := e.donPrefix[:0], e.donRest[:0]
		for i := 0; i < k; i++ {
			prefix = append(prefix, e.embedding[e.vertexAt(i)])
		}
		ids := e.ids[u]
		for _, x := range lc[keep:] {
			if ids != nil {
				x = ids[x]
			}
			rest = append(rest, x)
		}
		e.donPrefix, e.donRest = prefix, rest
		if e.opts.Donor.Give(prefix, rest) {
			e.levels[k] = lc[:keep]
			if k < depth {
				e.cuts++ // the node at depth iterates what it keeps already
			}
		}
		return
	}
}

// vertexAt is the query vertex mapped at depth on the current path.
func (e *engine) vertexAt(depth int) graph.Vertex {
	if e.opts.Adaptive {
		return e.adaptive.at[depth]
	}
	return e.phi[depth]
}

// nodeMask adds u and its backward neighbors to a node's failing set.
func nodeMask(accum bitset.Mask64, u graph.Vertex, bwd []graph.Vertex) bitset.Mask64 {
	accum = accum.With(uint32(u))
	for _, un := range bwd {
		accum = accum.With(uint32(un))
	}
	return accum
}

// leafLevel finishes the last unmapped query vertex u in place, without
// mapping u — nothing below the last level reads visited, mapped,
// candIdx or the adaptive pool. It filters
// lc by the conflict and symmetry checks of a full level (same profile
// counters, same failing-set masks) into a run of admissible data
// vertices — translated, so the sink only ever sees data vertices — and
// hands the run over as soon as it is full: when it holds
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
	ids := e.ids[u]
	for _, x := range lc {
		v := x
		if ids != nil {
			v = ids[x]
		}
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
