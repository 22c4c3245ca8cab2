package core

import (
	"sync"
	"sync/atomic"
	"time"

	"subgraphmatching/internal/candspace"
	"subgraphmatching/internal/enumerate"
	"subgraphmatching/internal/graph"
)

// Parallel enumeration. Each worker owns one reusable enumerate.Engine
// over the shared (read-only) candidate sets and auxiliary structure, so
// per-task scratch is allocated once per worker, not per subtree. The
// search space is divided into task units — pinned prefixes: root
// candidates, or longer ones when the root's candidate list is small
// enough to make splitting worthwhile — and distributed by the scheduler
// selected in Limits.Schedule: dynamic work stealing (default) or the
// static strided partition the paper mentions for CECI's multi-threaded
// execution.
//
// The embedding cap is enforced with a shared CAS loop: a worker
// reserves a sequence number only while the count is below the cap, so
// the reported count is exact under contention — no transient
// over-count, no undo.

// matchParallel runs the enumeration step across `workers` goroutines.
// cand, space, phi and weights are read-only from here on.
func matchParallel(q, g *graph.Graph, cand [][]uint32, space *candspace.Space,
	phi []graph.Vertex, weights [][]float64, cfg Config, limits Limits,
	workers int, res *Result) error {

	root := phi[0]
	rootCands := cand[root]
	if workers < 1 {
		workers = 1
	}

	var (
		accepted  atomic.Uint64
		timedOut  atomic.Bool
		limitHit  atomic.Bool
		matchLock sync.Mutex
	)
	// The caller's cancel flag, when supplied, doubles as the shared stop
	// signal: an external store(true) halts every worker at its next
	// poll, and internal stop causes (cap reached, OnMatch abort) store
	// into the same flag — which is why Limits.Cancel is documented as
	// per-run.
	stop := limits.Cancel
	if stop == nil {
		stop = new(atomic.Bool)
	}

	// acceptMatch reserves an exact sequence number for one embedding.
	// The CAS loop never lets the counter pass the cap, so the final
	// count needs no clamping and the cap race is deterministic.
	acceptMatch := func() (uint64, bool) {
		if limits.MaxEmbeddings == 0 {
			return accepted.Add(1), true
		}
		for {
			cur := accepted.Load()
			if cur >= limits.MaxEmbeddings {
				limitHit.Store(true)
				stop.Store(true)
				return 0, false
			}
			if accepted.CompareAndSwap(cur, cur+1) {
				return cur + 1, true
			}
		}
	}

	// With no cap and no user callback there is nothing to coordinate
	// per embedding: every engine already counts its own matches, and a
	// shared atomic bumped tens of millions of times would serialize the
	// workers on one cache line. Keep the per-match hook nil and sum the
	// per-engine counts after the join.
	countLocally := limits.MaxEmbeddings == 0 && limits.OnMatch == nil

	onMatch := func(m []uint32) bool {
		if stop.Load() {
			return false
		}
		n, ok := acceptMatch()
		if !ok {
			return false
		}
		if limits.OnMatch != nil {
			// m is this worker's engine slice. The worker is blocked in
			// this call and the callback must not keep the slice (the
			// Limits.OnMatch contract, same as sequentially), so it goes
			// through as it is; the lock only serializes the callbacks.
			matchLock.Lock()
			cont := limits.OnMatch(m)
			matchLock.Unlock()
			if !cont {
				stop.Store(true)
				return false
			}
		}
		if limits.MaxEmbeddings > 0 && n == limits.MaxEmbeddings {
			limitHit.Store(true)
			stop.Store(true)
			return false
		}
		return true
	}

	opts := enumerate.Options{
		Local:           cfg.Local,
		Kernel:          cfg.Kernel,
		FailingSets:     cfg.FailingSets,
		Adaptive:        cfg.Adaptive,
		AdaptiveWeights: weights,
		VF2PPRules:      cfg.VF2PPRules,
		Profile:         limits.Profile,
		Cancel:          stop,
	}
	if !countLocally {
		opts.OnMatch = onMatch
	}

	// The deadline is armed before any search work — including the
	// splitter's probe expansions, which previously ran unbounded and
	// uncancellable ahead of SetDeadline.
	start := time.Now()
	var deadline time.Time
	if limits.TimeLimit > 0 {
		deadline = start.Add(limits.TimeLimit)
	}

	// Build the task pool. Root-only tasks are the coarse default; when
	// the root has few candidates relative to the worker count (the
	// regime where one heavy root serializes a static partition), a probe
	// engine refines them: the static policy expands every root into all
	// its depth-1 (root, second) pairs, the cost-model policy (the
	// default) sizes tasks by estimated subtree weight and splits
	// recursively — below depth 1 over static orders, and on the
	// runtime-chosen second vertex in adaptive mode. The probe shares the
	// run's stop flag and deadline, and its work (expansions, candidates,
	// kernels) is tallied into SplitInfo and folded into the Result so
	// profile reconciliation stays exact.
	splitFactor := limits.SplitFactor
	if splitFactor == 0 {
		splitFactor = DefaultSplitFactor
	}
	info := &SplitInfo{Policy: limits.Split}
	var tasks []enumTask
	splitRegime := limits.Schedule == ScheduleWorkSteal &&
		q.NumVertices() >= 2 && len(rootCands) < workers*splitFactor
	var probeTimedOut bool
	if splitRegime {
		probe, err := enumerate.NewEngine(q, g, cand, space, phi, enumerate.Options{
			Local:           cfg.Local,
			Kernel:          cfg.Kernel,
			Adaptive:        cfg.Adaptive,
			AdaptiveWeights: weights,
			VF2PPRules:      cfg.VF2PPRules,
			Cancel:          stop,
		})
		if err != nil {
			return err
		}
		probe.SetDeadline(deadline)
		switch {
		case limits.Split == SplitStatic:
			tasks = buildStaticTasks(probe, rootCands, info)
		case cfg.Adaptive:
			est := newSplitEstimator(q, g, cand, space, phi)
			tasks = buildAdaptiveCostTasks(probe, rootCands, est, workers, info)
		default:
			est := newSplitEstimator(q, g, cand, space, phi)
			tasks = buildCostModelTasks(probe, rootCands, est, q.NumVertices(), workers, info)
		}
		info.ProbeKernels = probe.Stats().Kernels
		probeTimedOut = probe.Stats().TimedOut
	} else {
		tasks = rootTasks(make([]enumTask, 0, len(rootCands)), rootCands)
	}
	info.setPoolShape(tasks)
	if workers > len(tasks) {
		workers = len(tasks)
	}
	if workers < 1 {
		workers = 1
	}

	engines := make([]*enumerate.Engine, workers)
	for w := range engines {
		eng, err := enumerate.NewEngine(q, g, cand, space, phi, opts)
		if err != nil {
			return err
		}
		eng.SetDeadline(deadline)
		engines[w] = eng
	}

	// Per-worker scheduler tallies. Each goroutine accumulates into
	// locals and writes its own slice element once before exiting — no
	// shared atomics on the task loop.
	workerStats := make([]WorkerStats, workers)

	var wg sync.WaitGroup
	switch limits.Schedule {
	case ScheduleStrided:
		// Static partition of the root's candidates; no rebalancing.
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				eng := engines[w]
				var tasks uint64
				for i := w; i < len(rootCands); i += workers {
					// Task-granular cancellation: the engines poll the flag
					// only every few thousand nodes, so without this check a
					// cancel raced with task start would still enumerate a
					// subtree per worker.
					if stop.Load() {
						break
					}
					tasks++
					if !eng.RunPrefix(rootCands[i : i+1]) {
						break
					}
				}
				workerStats[w].Tasks = tasks
			}(w)
		}
	default:
		// Work stealing: tasks are dealt round-robin so heavy neighbors
		// spread out, then idle workers rebalance by stealing half of a
		// victim's remaining deque.
		deques := make([]*taskDeque, workers)
		for w := range deques {
			deques[w] = &taskDeque{tasks: make([]enumTask, 0, len(tasks)/workers+1)}
		}
		for i, t := range tasks {
			d := deques[i%workers]
			d.tasks = append(d.tasks, t)
		}
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				eng, self := engines[w], deques[w]
				var tasks, steals, failed uint64
				defer func() {
					workerStats[w] = WorkerStats{Tasks: tasks, Steals: steals, FailedSteals: failed}
				}()
				for {
					// Task-granular cancellation (see the strided loop).
					if stop.Load() {
						return
					}
					t, ok := self.pop()
					if !ok {
						stolen, probes := stealInto(self, deques, w)
						failed += uint64(probes)
						if !stolen {
							return
						}
						steals++
						continue
					}
					tasks++
					if !eng.RunPrefix(t) {
						return
					}
				}
			}(w)
		}
	}
	wg.Wait()

	var mergedProf *enumerate.SearchProfile
	if limits.Profile {
		mergedProf = enumerate.NewSearchProfile(q.NumVertices())
		res.WorkerProfiles = make([]*enumerate.SearchProfile, len(engines))
	}
	var nodes, localEmb uint64
	workerNodes := make([]uint64, len(engines))
	for w, eng := range engines {
		st := eng.Stats()
		nodes += st.Nodes
		workerNodes[w] = st.Nodes
		workerStats[w].Nodes = st.Nodes
		localEmb += st.Embeddings
		res.Kernels.Add(st.Kernels)
		if st.TimedOut {
			timedOut.Store(true)
		}
		if mergedProf != nil {
			mergedProf.Merge(st.Profile)
			res.WorkerProfiles[w] = st.Profile
		}
	}

	if countLocally {
		res.Embeddings = localEmb
	} else {
		res.Embeddings = accepted.Load()
	}
	// Probe expansions are search work: each computed one local-candidate
	// set, exactly what a search node does. Folding them into Nodes and
	// Kernels (EXPLAIN carries them as the heat table's probe row) keeps
	// the totals honest once the splitter makes probing common.
	res.Nodes = nodes + info.Probes
	res.Kernels.Add(info.ProbeKernels)
	if probeTimedOut {
		timedOut.Store(true)
	}
	res.TimedOut = timedOut.Load()
	res.LimitHit = limitHit.Load()
	res.EnumTime = time.Since(start)
	res.Profile = mergedProf
	res.WorkerNodes = workerNodes
	res.Workers = workerStats
	res.Split = info
	return nil
}
