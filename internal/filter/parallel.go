package filter

import (
	"fmt"
	"math"
	"time"

	"subgraphmatching/internal/bipartite"
	"subgraphmatching/internal/graph"
	"subgraphmatching/internal/par"
)

// Parallel filtering. The per-query-vertex phases of the filters — LDF
// and NLF candidate generation, GraphQL's profile-based local pruning,
// DP-iso's LDF initialization — examine each (query vertex, data
// vertex) pair independently, so they fan out over a worker pool: the
// label pool of every query vertex is cut into index chunks, chunks are
// distributed dynamically (package par), and the per-chunk outputs are
// stitched back in chunk order, which keeps the result byte-identical
// to a single-worker run.
//
// GraphQL's global refinement and STEADY's fix-point pruning are not
// independent per vertex: the sequential code removes candidates in
// place, so each check sees the removals of the previous one
// (Gauss–Seidel). The parallel runners instead refine in Jacobi rounds
// against an immutable snapshot of the previous round's candidate sets:
// all survivor sets for one round are computed concurrently, then the
// removals are applied at a barrier, and only the query vertices with a
// changed neighbor are re-checked in the next round (frontier). Within
// a bounded round budget a Jacobi round prunes no more than a
// Gauss–Seidel round (its snapshot is never smaller), so per round the
// Jacobi sets are a superset of the sequential ones; iterated to the
// fix point both orders converge to the same unique maximal consistent
// sets, because the pruning conditions are monotone in the candidate
// sets (chaotic iteration of a monotone decreasing operator).
// equivalence_test.go pins down both properties.
//
// CFL and CECI run their BFS-tree passes wave-scheduled (see
// tree_parallel.go): their single-pass pruning sequences are replayed
// exactly, so — unlike GQL — their parallel output is byte-identical
// to the sequential one at every worker count.

// genChunk is the number of label-pool vertices one generation task
// scans. Small enough that a hub label's pool splits into many tasks
// (load balance under label skew), large enough that the per-task
// bookkeeping stays negligible.
const genChunk = 256

// refineChunk is the number of candidates one refinement task checks.
const refineChunk = 128

// scratch is one worker's private mutable state. Everything the
// per-task closures touch besides task-indexed output slots lives here.
type scratch struct {
	matcher *bipartite.Matcher
	gProf   *profiler    // radius-r data-graph profiles (GQL, radius > 1)
	qProf   *profiler    // radius-r query profiles
	want    labelProfile // current task's query-side profile
}

func (s *state) newScratches(workers, radius int) []*scratch {
	sc := make([]*scratch, workers)
	for w := range sc {
		sc[w] = &scratch{matcher: bipartite.NewMatcher(s.q.MaxDegree())}
		if radius > 1 {
			sc[w].gProf = newProfiler(s.g, radius)
			sc[w].qProf = newProfiler(s.q, radius)
		}
	}
	return sc
}

// RunParallel executes method m with its default parameters across
// `workers` goroutines. The result is deterministic: identical for
// every workers value, including 1. For every method except GQL it is
// also byte-identical to the sequential Run — CFL and CECI replay
// their sequential operation sequence wave-scheduled (tree_parallel.go).
// GQL's global refinement runs in Jacobi rounds (see the package
// comment above), which within the default round budget prunes a
// superset of the sequential Gauss–Seidel sets — still sound and
// complete, just up to one round behind.
func RunParallel(m Method, q, g *graph.Graph, workers int) ([][]uint32, error) {
	cand, _, err := RunParallelStats(m, q, g, workers)
	return cand, err
}

// RunParallelStats is RunParallel returning also the per-worker work
// tallies of the parallel phases (candidate vertices examined), the
// input to par.MakespanBound. Every method reports a tally of length
// `workers` (clamped to at least 1).
func RunParallelStats(m Method, q, g *graph.Graph, workers int) ([][]uint32, []uint64, error) {
	return RunParallelTraced(m, q, g, workers, nil)
}

// RunParallelTraced is RunParallelStats with per-stage instrumentation:
// each method records the same stage names as its sequential RunTraced
// counterpart (stage boundaries are the parallel barriers, so per-stage
// candidate counts remain comparable across the two paths). tr may be
// nil.
func RunParallelTraced(m Method, q, g *graph.Graph, workers int, tr *StageTrace) ([][]uint32, []uint64, error) {
	if q.NumVertices() == 0 {
		return nil, nil, fmt.Errorf("filter: empty query graph")
	}
	if !q.IsConnected() {
		return nil, nil, fmt.Errorf("filter: query graph must be connected")
	}
	if workers < 1 {
		workers = 1
	}
	tally := make([]uint64, workers)
	start := time.Now()
	switch m {
	case LDF:
		s := newState(q, g)
		s.generateParallel(workers, tally, nil, func(sc *scratch, u graph.Vertex, v uint32) bool {
			return s.g.Degree(v) >= s.q.Degree(u)
		})
		tr.add("ldf", start, s.cand)
		return s.result(), tally, nil
	case NLF:
		s := newState(q, g)
		s.generateParallel(workers, tally, nil, func(sc *scratch, u graph.Vertex, v uint32) bool {
			return s.g.Degree(v) >= s.q.Degree(u) && s.nlfOK(u, v)
		})
		tr.add("nlf", start, s.cand)
		return s.result(), tally, nil
	case GQL:
		return runGraphQLRadiusParallel(q, g, DefaultGQLRounds, 1, workers, tally, tr), tally, nil
	case DPIso:
		return runDPIsoParallel(q, g, DefaultDPIsoPasses, workers, tally, tr), tally, nil
	case Steady:
		return runSteadyParallel(q, g, workers, tally, tr), tally, nil
	case CFL:
		return runCFLParallel(q, g, CFLRootWorkers(q, g, workers), workers, tally, tr), tally, nil
	case CECI:
		return runCECIParallel(q, g, CECIRootWorkers(q, g, workers), workers, tally, tr), tally, nil
	default:
		return nil, nil, fmt.Errorf("filter: unknown method %v", m)
	}
}

// RunGraphQLParallel is RunGraphQL with the local pruning fanned out
// per query vertex and the global refinement run in frontier-based
// Jacobi rounds across `workers` goroutines.
func RunGraphQLParallel(q, g *graph.Graph, rounds, workers int) [][]uint32 {
	return RunGraphQLRadiusParallel(q, g, rounds, 1, workers)
}

// RunGraphQLRadiusParallel is the parallel form of RunGraphQLRadius.
// The output is identical for every workers value; relative to the
// sequential (Gauss–Seidel) refinement each bounded round keeps a
// superset, with equality at the fix point.
func RunGraphQLRadiusParallel(q, g *graph.Graph, rounds, radius, workers int) [][]uint32 {
	cand, _ := RunGraphQLRadiusParallelStats(q, g, rounds, radius, workers, nil)
	return cand
}

// RunGraphQLRadiusParallelStats is RunGraphQLRadiusParallel returning
// also the per-worker work tallies and recording trace stages ("local",
// then one "refine-<k>" per Jacobi round) into tr (may be nil).
func RunGraphQLRadiusParallelStats(q, g *graph.Graph, rounds, radius, workers int, tr *StageTrace) ([][]uint32, []uint64) {
	if workers < 1 {
		workers = 1
	}
	tally := make([]uint64, workers)
	return runGraphQLRadiusParallel(q, g, rounds, radius, workers, tally, tr), tally
}

func runGraphQLRadiusParallel(q, g *graph.Graph, rounds, radius, workers int, tally []uint64, tr *StageTrace) [][]uint32 {
	start := time.Now()
	s := newState(q, g)
	if radius <= 1 {
		s.generateParallel(workers, tally, nil, func(sc *scratch, u graph.Vertex, v uint32) bool {
			return s.g.Degree(v) >= s.q.Degree(u) && s.nlfOK(u, v)
		})
	} else {
		s.generateParallel(workers, tally, &radius, func(sc *scratch, u graph.Vertex, v uint32) bool {
			if s.g.Degree(v) < s.q.Degree(u) {
				return false
			}
			return sc.gProf.covers(s.g, v, sc.want)
		})
	}
	for u := 0; u < q.NumVertices(); u++ {
		s.rebuildMember(graph.Vertex(u))
	}
	tr.add("local", start, s.cand)
	s.refineJacobi(rounds, workers, tally, tr, "refine-%d", func(sc *scratch, u graph.Vertex, qn []graph.Vertex, v uint32) bool {
		return s.semiPerfect(sc.matcher, qn, v)
	})
	return s.result()
}

// RunDPIsoParallel is the parallel form of RunDPIso: the LDF
// initialization (the per-candidate scan that dominates DP-iso's filter
// time) fans out per query vertex, and the root is chosen from the
// already-computed candidate sizes — the same argmin DPIsoRoot
// computes, without scanning the pools a second time. The alternating
// refinement sweeps are order-dependent and stay sequential, so the
// output is byte-identical to RunDPIso for every workers value.
func RunDPIsoParallel(q, g *graph.Graph, passes, workers int) [][]uint32 {
	cand, _ := RunDPIsoParallelStats(q, g, passes, workers, nil)
	return cand
}

// RunDPIsoParallelStats is RunDPIsoParallel returning also the
// per-worker work tallies and recording trace stages ("init", then one
// "pass-<k>" per sweep) into tr (may be nil).
func RunDPIsoParallelStats(q, g *graph.Graph, passes, workers int, tr *StageTrace) ([][]uint32, []uint64) {
	if workers < 1 {
		workers = 1
	}
	tally := make([]uint64, workers)
	return runDPIsoParallel(q, g, passes, workers, tally, tr), tally
}

func runDPIsoParallel(q, g *graph.Graph, passes, workers int, tally []uint64, tr *StageTrace) [][]uint32 {
	start := time.Now()
	s := newState(q, g)
	s.generateParallel(workers, tally, nil, func(sc *scratch, u graph.Vertex, v uint32) bool {
		return s.g.Degree(v) >= s.q.Degree(u)
	})
	// DPIsoRoot's rule on the sets just built: argmin |C_LDF(u)| / d(u),
	// first minimum wins.
	root := graph.Vertex(0)
	bestScore := -1.0
	for u := 0; u < q.NumVertices(); u++ {
		uu := graph.Vertex(u)
		score := float64(len(s.cand[u])) / float64(q.Degree(uu))
		if bestScore < 0 || score < bestScore {
			root, bestScore = uu, score
		}
	}
	for u := 0; u < q.NumVertices(); u++ {
		s.rebuildMember(graph.Vertex(u))
	}
	tr.add("init", start, s.cand)
	s.dpisoPassesTraced(graph.NewBFSTree(q, root), passes, tr)
	return s.result()
}

// RunSteadyParallel is the parallel form of RunSteady: NLF generation
// fans out per query vertex and Filtering Rule 3.1 is iterated in
// Jacobi rounds to the fix point. The fix point of the rule is the
// unique maximal mutually-consistent candidate family regardless of
// removal order, so the output is byte-identical to RunSteady.
func RunSteadyParallel(q, g *graph.Graph, workers int) [][]uint32 {
	if workers < 1 {
		workers = 1
	}
	return runSteadyParallel(q, g, workers, make([]uint64, workers), nil)
}

func runSteadyParallel(q, g *graph.Graph, workers int, tally []uint64, tr *StageTrace) [][]uint32 {
	start := time.Now()
	s := newState(q, g)
	s.generateParallel(workers, tally, nil, func(sc *scratch, u graph.Vertex, v uint32) bool {
		return s.g.Degree(v) >= s.q.Degree(u) && s.nlfOK(u, v)
	})
	for u := 0; u < q.NumVertices(); u++ {
		s.rebuildMember(graph.Vertex(u))
	}
	s.refineJacobi(math.MaxInt, workers, tally, nil, "", func(sc *scratch, u graph.Vertex, qn []graph.Vertex, v uint32) bool {
		for _, up := range qn {
			if !s.hasNeighborIn(v, up) {
				return false
			}
		}
		return true
	})
	// The sequential RunSteady records one "fixpoint" stage; the Jacobi
	// rounds converge to the same fix point, so one stage matches.
	tr.add("fixpoint", start, s.cand)
	return s.result()
}

// rebuildMember resyncs u's membership bitmap with cand[u].
func (s *state) rebuildMember(u graph.Vertex) {
	s.member[u].Reset()
	for _, v := range s.cand[u] {
		s.member[u].Set(v)
	}
}

type genTask struct {
	u      graph.Vertex
	lo, hi int // chunk of the label pool of u
}

// generateParallel fills s.cand[u] for every query vertex by scanning
// VerticesWithLabel(L(u)) in chunks with pred, stitching the per-chunk
// survivors back in chunk order (pools are sorted, so the concatenation
// is the sorted candidate set). Membership bitmaps are not touched;
// callers that need them run rebuildMember afterwards. radius, when
// non-nil and > 1, equips each worker with profilers and each task with
// the query profile of its vertex (sc.want).
func (s *state) generateParallel(workers int, tally []uint64, radius *int, pred func(sc *scratch, u graph.Vertex, v uint32) bool) {
	q, g := s.q, s.g
	var tasks []genTask
	for u := 0; u < q.NumVertices(); u++ {
		uu := graph.Vertex(u)
		pool := len(g.VerticesWithLabel(q.Label(uu)))
		for lo := 0; lo < pool; lo += genChunk {
			hi := lo + genChunk
			if hi > pool {
				hi = pool
			}
			tasks = append(tasks, genTask{u: uu, lo: lo, hi: hi})
		}
		if pool == 0 {
			s.cand[u] = nil
		}
	}
	r := 1
	if radius != nil {
		r = *radius
	}
	scratches := s.newScratches(workers, r)
	outs := make([][]uint32, len(tasks))
	work := par.Run(workers, len(tasks), func(w, t int) uint64 {
		sc, task := scratches[w], tasks[t]
		if sc.qProf != nil {
			sc.want = sc.qProf.profile(q, task.u)
		}
		pool := g.VerticesWithLabel(q.Label(task.u))[task.lo:task.hi]
		var out []uint32
		for _, v := range pool {
			if pred(sc, task.u, v) {
				out = append(out, v)
			}
		}
		outs[t] = out
		return uint64(task.hi - task.lo)
	})
	par.Accumulate(tally, work)
	// Stitch: tasks were emitted per u in ascending chunk order.
	for t := 0; t < len(tasks); {
		u := tasks[t].u
		var cand []uint32
		for ; t < len(tasks) && tasks[t].u == u; t++ {
			cand = append(cand, outs[t]...)
		}
		s.cand[u] = cand
	}
}

type refineTask struct {
	u      graph.Vertex
	lo, hi int // chunk of cand[u]
}

// refineJacobi iterates `rounds` Jacobi refinement rounds (or until no
// candidate is removed) with the per-candidate survival check `keep`.
// Within a round every check reads the immutable previous-round
// snapshot — candidate membership bitmaps are only mutated at the
// inter-round barrier — so the survivor sets are independent of worker
// count and task order. Rounds re-check only the frontier: query
// vertices with at least one neighbor that lost candidates in the
// previous round. When stageFmt is non-empty, each round closes one
// trace stage named fmt.Sprintf(stageFmt, round+1) on tr.
func (s *state) refineJacobi(rounds, workers int, tally []uint64, tr *StageTrace, stageFmt string, keep func(sc *scratch, u graph.Vertex, qn []graph.Vertex, v uint32) bool) {
	stageStart := time.Now()
	q := s.q
	n := q.NumVertices()
	scratches := s.newScratches(workers, 1)
	dirty := make([]bool, n)
	for u := range dirty {
		dirty[u] = true
	}
	var tasks []refineTask
	for round := 0; round < rounds; round++ {
		tasks = tasks[:0]
		for u := 0; u < n; u++ {
			if !dirty[u] {
				continue
			}
			for lo := 0; lo < len(s.cand[u]); lo += refineChunk {
				hi := lo + refineChunk
				if hi > len(s.cand[u]) {
					hi = len(s.cand[u])
				}
				tasks = append(tasks, refineTask{u: graph.Vertex(u), lo: lo, hi: hi})
			}
		}
		if len(tasks) == 0 {
			break
		}
		kept := make([][]uint32, len(tasks))
		removed := make([][]uint32, len(tasks))
		work := par.Run(workers, len(tasks), func(w, t int) uint64 {
			sc, task := scratches[w], tasks[t]
			qn := q.Neighbors(task.u)
			var k, r []uint32
			for _, v := range s.cand[task.u][task.lo:task.hi] {
				if keep(sc, task.u, qn, v) {
					k = append(k, v)
				} else {
					r = append(r, v)
				}
			}
			kept[t], removed[t] = k, r
			return uint64(task.hi - task.lo)
		})
		par.Accumulate(tally, work)

		// Barrier: apply the removals and compute the next frontier.
		shrunk := make([]bool, n)
		for t := 0; t < len(tasks); {
			u := tasks[t].u
			newCand := s.cand[u][:0]
			for ; t < len(tasks) && tasks[t].u == u; t++ {
				newCand = append(newCand, kept[t]...)
				for _, v := range removed[t] {
					s.member[u].Clear(v)
					shrunk[u] = true
				}
			}
			s.cand[u] = newCand
		}
		changed := false
		for u := 0; u < n; u++ {
			dirty[u] = false
			for _, un := range q.Neighbors(graph.Vertex(u)) {
				if shrunk[un] {
					dirty[u] = true
					changed = true
					break
				}
			}
		}
		if stageFmt != "" {
			stageStart = tr.add(fmt.Sprintf(stageFmt, round+1), stageStart, s.cand)
		}
		if !changed {
			break
		}
	}
}
