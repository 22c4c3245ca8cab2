package core

import (
	"subgraphmatching/internal/candspace"
	"subgraphmatching/internal/enumerate"
	"subgraphmatching/internal/graph"
	"subgraphmatching/internal/intersect"
)

// Cost-model-driven task splitting. When the root's candidate list is
// short for the worker count, root-grained tasks cannot balance: on
// skewed data a handful of heavy roots own nearly all the search tree.
// The cost model estimates each task's subtree weight — candidate
// cardinalities scaled by edge selectivities along the order, refined by
// the probed fanout of the task's pinned prefix — and splits only the
// tasks whose estimate exceeds a share of the total, recursing below
// depth 1 when one (root, second) pair still dominates. Weighting the
// split puts the task granularity where the work is instead of
// shattering the cheap roots too.

const (
	// splitFactor sets when the pool is refined at all: while the root
	// vertex has fewer than workers*splitFactor candidates. Longer
	// candidate lists already provide enough task-level parallelism to
	// balance through stealing alone.
	splitFactor = 32
	// splitShareDivisor sets the split threshold: a task is split while
	// its estimate exceeds total/(workers*splitShareDivisor), i.e. tasks
	// are sized to at most 1/4 of a worker's fair share.
	splitShareDivisor = 4
	// splitMinCost floors the threshold: subtrees this small are cheaper
	// to run than to probe and re-enqueue.
	splitMinCost = 64
	// splitMaxTasksPerWorker caps the task pool; beyond it per-task
	// dispatch overhead outweighs any balance gain.
	splitMaxTasksPerWorker = 128
)

// SplitInfo reports how the parallel scheduler built its task pool: the
// pool shape, the probe work spent splitting, and the cost model's node
// prediction — checkable against the measured Result.Nodes.
type SplitInfo struct {
	// Tasks fed to the scheduler; SplitTasks of them pin more than the
	// root vertex. MaxPrefix is the deepest pinned prefix length
	// (1 = root-grained tasks only).
	Tasks      int
	SplitTasks int
	MaxPrefix  int
	// Probes counts probe expansions (one local-candidate computation
	// each), ProbeCandidates the candidates they produced, and
	// ProbeKernels the intersection kernels they executed. Probe work is
	// folded into Result.Nodes/Result.Kernels and carried as the EXPLAIN
	// heat table's probe row, so profile reconciliation stays exact.
	Probes          uint64
	ProbeCandidates uint64
	ProbeKernels    intersect.KernelStats
	// PredictedNodes is the cost model's estimate of the enumeration
	// search nodes (the per-task estimates summed over the final pool);
	// compare against Result.Nodes minus Probes. Zero for a root-grained
	// pool, which estimates nothing.
	PredictedNodes uint64
}

// splitEstimator precomputes the per-depth expected branching and
// subtree sizes for one (order, candidates) pair. branch[d] is the
// expected number of depth-(d+1) extensions per search node at depth d:
// |C(phi[d])| scaled by the selectivity of every backward edge, read off
// the candidate-space CSR in O(1) per edge (the same model
// order.EstimateCost ranks orders with). Without a space (Direct/Scan
// locals) the data graph's edge density stands in for selectivity.
// subtree[d] is the expected node count of the search subtree rooted at
// one node at depth d: subtree[n] = 1 (a leaf), subtree[d] = 1 +
// branch[d]*subtree[d+1].
type splitEstimator struct {
	branch  []float64
	subtree []float64
}

func newSplitEstimator(q, g *graph.Graph, cand [][]uint32, space *candspace.Space, phi []graph.Vertex) *splitEstimator {
	n := q.NumVertices()
	est := &splitEstimator{
		branch:  make([]float64, n+1),
		subtree: make([]float64, n+1),
	}
	pos := make([]int, n)
	for i, u := range phi {
		pos[u] = i
	}
	nv := float64(g.NumVertices())
	density := 0.0
	if nv > 0 {
		density = 2 * float64(g.NumEdges()) / (nv * nv)
	}
	for d := 0; d < n; d++ {
		u := phi[d]
		b := float64(len(cand[u]))
		for _, un := range q.Neighbors(u) {
			if pos[un] >= d {
				continue
			}
			b *= backEdgeSelectivity(space, un, u, density)
		}
		est.branch[d] = b
	}
	est.subtree[n] = 1
	for d := n - 1; d >= 0; d-- {
		est.subtree[d] = 1 + est.branch[d]*est.subtree[d+1]
	}
	return est
}

// backEdgeSelectivity estimates the probability that a random candidate
// of b is adjacent to a random candidate of a: the materialized pair's
// edge count over the candidate cross product, or the graph density when
// the pair is absent from the space (tree-compressed spaces, Direct/Scan
// locals).
func backEdgeSelectivity(space *candspace.Space, a, b graph.Vertex, density float64) float64 {
	if space == nil || !space.HasPair(a, b) {
		return density
	}
	ca, cb := space.Candidates(a), space.Candidates(b)
	if len(ca) == 0 || len(cb) == 0 {
		return 0
	}
	return float64(space.PairSize(a, b)) / (float64(len(ca)) * float64(len(cb)))
}

// taskCost estimates the search nodes of a task pinned to a
// prefix of the given length with the probed fanout: the task's entry
// node plus one expected subtree per probed child.
func (est *splitEstimator) taskCost(prefixLen, fanout int) float64 {
	return 1 + float64(fanout)*est.subtree[prefixLen+1]
}

// splitWork is one candidate task during splitting: its pinned prefix,
// the probed local candidates of the next order vertex (the children a
// split would pin), and its cost estimate.
type splitWork struct {
	prefix   []uint32
	children []uint32
	est      float64
}

// rootTasks appends one root-grained task per root candidate. Each task
// is a one-element window of roots itself, so the coarse pool allocates
// nothing per task.
func rootTasks(tasks []enumTask, roots []uint32) []enumTask {
	for i := range roots {
		tasks = append(tasks, roots[i:i+1:i+1])
	}
	return tasks
}

// pairTasks appends one (root, child) task per child, all carved from
// one backing array.
func pairTasks(tasks []enumTask, root uint32, children []uint32) []enumTask {
	pairs := make([]uint32, 0, 2*len(children))
	for _, c := range children {
		pairs = append(pairs, root, c)
		tasks = append(tasks, pairs[len(pairs)-2:len(pairs):len(pairs)])
	}
	return tasks
}

// probeRoots opens both cost-model builders: every root candidate is
// probed once for its depth-1 fanout and costed from it. A root the
// probe could not expand — halted by cancellation or the deadline —
// stays childless on the model's unrefined estimate, so the pool always
// covers the full search space. It returns the work items in root order
// and the sum of their estimates.
func probeRoots(probe *enumerate.Engine, rootCands []uint32, est *splitEstimator, info *SplitInfo) ([]splitWork, float64) {
	work := make([]splitWork, 0, len(rootCands))
	var buf []uint32
	total := 0.0
	for i := range rootCands {
		w := splitWork{prefix: rootCands[i : i+1 : i+1], est: est.subtree[1]}
		if !probe.Stopped() {
			buf = probe.ExpandPrefix(w.prefix, buf[:0])
		}
		if !probe.Stopped() {
			info.Probes++
			info.ProbeCandidates += uint64(len(buf))
			w.children = append([]uint32(nil), buf...)
			w.est = est.taskCost(1, len(buf))
		}
		work = append(work, w)
		total += w.est
	}
	return work, total
}

// splitThreshold is the estimate above which a task is split: a quarter
// of a worker's fair share of total, floored at splitMinCost.
func splitThreshold(total float64, workers int) float64 {
	return max(total/float64(workers*splitShareDivisor), splitMinCost)
}

// buildCostModelTasks sizes the pool over a static order.
// Every root is probed once for its depth-1 fanout; any task whose
// estimate exceeds the per-worker share threshold is split into one task
// per probed child, each probed in turn for its own fanout — recursing
// below depth 1 until the estimates balance, the prefix reaches the
// second-to-last vertex, or the pool hits its cap. Estimates are sums
// over the final pool, so SplitInfo.PredictedNodes predicts exactly the
// split execution's node count under the model.
func buildCostModelTasks(probe *enumerate.Engine, rootCands []uint32, est *splitEstimator,
	n, workers int, info *SplitInfo) []enumTask {

	pending, total := probeRoots(probe, rootCands, est, info)
	threshold := splitThreshold(total, workers)
	maxTasks := workers * splitMaxTasksPerWorker

	tasks := make([]enumTask, 0, len(pending))
	predicted := 0.0
	var buf []uint32
	for len(pending) > 0 {
		w := pending[0]
		pending = pending[1:]
		L := len(w.prefix)
		split := w.est > threshold && L < n-1 && len(w.children) > 0 &&
			len(tasks)+len(pending)+len(w.children) <= maxTasks && !probe.Stopped()
		if !split {
			tasks = append(tasks, w.prefix)
			predicted += w.est
			continue
		}
		for _, c := range w.children {
			child := splitWork{
				prefix: append(append(make([]uint32, 0, L+1), w.prefix...), c),
				// Halted mid-split, the child stays unprobed on the model's
				// unrefined estimate so coverage stays complete.
				est: est.subtree[L+1],
			}
			buf = probe.ExpandPrefix(child.prefix, buf[:0])
			if !probe.Stopped() {
				info.Probes++
				info.ProbeCandidates += uint64(len(buf))
				child.children = append([]uint32(nil), buf...)
				child.est = est.taskCost(L+1, len(buf))
			}
			pending = append(pending, child)
		}
	}
	info.PredictedNodes = uint64(predicted)
	return tasks
}

// buildAdaptiveCostTasks sizes the pool under DP-iso's adaptive
// ordering: a heavy root splits on the runtime-chosen second vertex, one
// level only. It is not buildCostModelTasks with a prefix bound of 2,
// because that builder probes every child of a split while this one
// costs them from the model alone (below the split boundary the
// estimator's BFS order is only a proxy for the dynamic one): on
// TestSplitEquivalence's first random fixture under the DP-iso preset at
// 4 workers the bounded fold reads Probes 86 / PredictedNodes 23855
// against this builder's 13 / 23439 for the same 75-task pool.
func buildAdaptiveCostTasks(probe *enumerate.Engine, rootCands []uint32, est *splitEstimator,
	workers int, info *SplitInfo) []enumTask {

	roots, total := probeRoots(probe, rootCands, est, info)
	threshold := splitThreshold(total, workers)
	maxTasks := workers * splitMaxTasksPerWorker

	var tasks []enumTask
	predicted := 0.0
	for _, w := range roots {
		if w.est <= threshold || len(w.children) == 0 || len(tasks)+len(w.children) > maxTasks {
			tasks = append(tasks, w.prefix)
			predicted += w.est
			continue
		}
		tasks = pairTasks(tasks, w.prefix[0], w.children)
		for range w.children {
			predicted += est.subtree[2] // one term per task, as everywhere in the pool
		}
	}
	info.PredictedNodes = uint64(predicted)
	return tasks
}

// buildTaskPool builds the run's task pool and records how on res.Split.
// Root-grained tasks are the coarse default; in the short-root regime
// (see splitFactor) a probe engine refines them by estimated subtree
// weight — recursively below depth 1 over static orders, on the
// runtime-chosen second vertex in adaptive mode. The probe is a worker
// engine minus the sink, failing sets and profile, so it shares
// the run's stop flag and deadline. Its expansions are search work: each
// computed one local-candidate set, exactly what a search node does, so
// they are folded into res.Nodes and res.Kernels here (EXPLAIN carries
// them as the heat table's probe row), as is a probe timeout.
func buildTaskPool(plan *Plan, opts enumerate.Options,
	newEngine func(enumerate.Options) (*enumerate.Engine, error), workers int, res *Result) ([]enumTask, error) {

	q := plan.Query
	rootCands := plan.Cand[plan.Order[0]]
	info := &SplitInfo{}
	res.Split = info
	var tasks []enumTask
	if q.NumVertices() >= 2 && len(rootCands) < workers*splitFactor {
		opts.OnRun, opts.FailingSets, opts.Profile = nil, false, false
		probe, err := newEngine(opts)
		if err != nil {
			return nil, err
		}
		est := newSplitEstimator(q, plan.Data, plan.Cand, plan.Space, plan.Order)
		if plan.Cfg.Adaptive {
			tasks = buildAdaptiveCostTasks(probe, rootCands, est, workers, info)
		} else {
			tasks = buildCostModelTasks(probe, rootCands, est, q.NumVertices(), workers, info)
		}
		st := probe.Stats()
		info.ProbeKernels = st.Kernels
		res.Nodes += info.Probes
		res.Kernels.Add(st.Kernels)
		res.TimedOut = st.TimedOut
	} else {
		tasks = rootTasks(make([]enumTask, 0, len(rootCands)), rootCands)
	}
	info.setPoolShape(tasks)
	return tasks, nil
}

// setPoolShape fills the pool-shape fields once the task pool is final.
func (info *SplitInfo) setPoolShape(tasks []enumTask) {
	info.Tasks = len(tasks)
	info.MaxPrefix = 1
	for _, t := range tasks {
		if len(t) > 1 {
			info.SplitTasks++
		}
		info.MaxPrefix = max(info.MaxPrefix, len(t))
	}
}
