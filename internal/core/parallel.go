package core

import (
	"sync"
	"sync/atomic"
	"time"

	"subgraphmatching/internal/enumerate"
	"subgraphmatching/internal/graph"
)

// Parallel enumeration. Each worker owns one reusable enumerate.Engine
// over the shared (read-only) candidate sets and auxiliary structure, so
// per-task scratch is allocated once per worker, not per subtree. The
// search space is divided into task units — pinned prefixes: root
// candidates, or longer ones where the cost model refined them because
// the root's candidate list is short for the worker count — dealt
// round-robin into per-worker deques and rebalanced by work stealing, so
// wall-clock time tracks total work instead of the heaviest static
// partition: on power-law data graphs one root candidate can own orders
// of magnitude more search tree than the rest.
//
// The embedding cap is enforced with a shared CAS loop: a worker
// reserves a sequence number only while the count is below the cap, so
// the reported count is exact under contention — no transient
// over-count, no undo.

// cappedCountRun bounds the leaf runs of a parallel capped count — a
// hooked run with no sink, so no sink call or lock to share across a
// run, and a cap that is reserved per embedding either way. It is not
// a tuning knob but a brake, and the benchmark harness is what it
// brakes for: with whole runs (mean 5) the two workers CAS the shared
// counter in bursts instead of taking turns on its cache line and
// enum-heavy reads 1.16× the parent's qps, which lifts its
// smatchd.overhead_us / lat_p50_ms share to 0.043–0.048 against the
// harness's 0.05 floor; with runs of one the same workload reads 0.85×
// (a run of one costs more than the per-leaf loop it replaced), with
// 2 0.97×, with 3 it reads what the parent read (EXPERIMENTS.md "Leaf
// runs" has every run). It goes when the floor does — ROADMAP item 2,
// behind Benchmark v2 (item 1a).
const cappedCountRun = 3

// matchParallel runs the enumeration step across limits.Parallel
// goroutines. opts is the run's engine configuration as MatchPlan built
// it from (plan, limits); the worker and probe engines are made from it
// with the cap, deadline, cancel flag and sink swapped for their shared
// forms. The hooks below read the cap and the caller's sink (limits.OnRun
// — MatchPlan has resolved OnMatch into it) from limits, captured whole
// as they always were: the cap counter's cache line is contended on
// every embedding and enum-heavy read 3 % slower with the two values
// copied into locals (EXPERIMENTS.md "One parallel runner").
func matchParallel(plan *Plan, opts enumerate.Options, limits Limits, res *Result) error {
	workers := limits.Parallel
	var (
		accepted  atomic.Uint64
		limitHit  atomic.Bool
		matchLock sync.Mutex
	)
	// The caller's cancel flag, when supplied, doubles as the shared stop
	// signal: an external store(true) halts every worker at its next
	// poll, and internal stop causes (cap reached, a sink that declined)
	// store into the same flag — which is why Limits.Cancel is documented
	// as per-run.
	stop := opts.Cancel
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

	// With no cap and no sink there is nothing to coordinate per
	// embedding: every engine already counts its own matches, and a
	// shared atomic bumped tens of millions of times would serialize the
	// workers on one cache line. Keep the hook nil and sum the per-engine
	// counts after the join.
	countLocally := limits.MaxEmbeddings == 0 && limits.OnRun == nil

	// onRun is every worker engine's sink. It reserves the run's share of
	// the cap one embedding at a time, exactly as the per-embedding hook
	// did: a worker that reserved the remaining cap as a block would
	// touch the contended counter once per run, which is ROADMAP item 2
	// and waits for Benchmark v2 (item 1a) with the rest of it. What it
	// reserved goes to the caller's sink in one call under matchLock.
	onRun := func(m []uint32, u graph.Vertex, vs []uint32) int {
		if stop.Load() {
			return 0
		}
		n, last := 0, uint64(0)
		for n < len(vs) {
			seq, ok := acceptMatch()
			if !ok {
				break
			}
			n, last = n+1, seq
		}
		if limits.OnRun != nil && n > 0 {
			// m and vs are this worker's engine slices. The worker is
			// blocked in this call and the sink must not keep them (the
			// Limits.OnRun contract, same as sequentially), so they go
			// through as they are; the lock only serializes the calls.
			matchLock.Lock()
			taken := limits.OnRun(m, u, vs[:n])
			matchLock.Unlock()
			if taken < n {
				// What the sink declined was not delivered: give it back, so
				// the count is of embeddings taken. The cap stays exact —
				// the counter only ever drops below what was reserved.
				accepted.Add(-uint64(n - taken))
				stop.Store(true)
				return taken
			}
		}
		if limits.MaxEmbeddings > 0 && last == limits.MaxEmbeddings {
			limitHit.Store(true)
			stop.Store(true)
		}
		return n
	}

	// The deadline is armed before any search work — including the
	// splitter's probe expansions — and is one for the whole run, set on
	// each engine, not a per-task TimeLimit; the cap is the shared one
	// above, not a per-engine MaxEmbeddings.
	start := time.Now()
	var deadline time.Time
	if opts.TimeLimit > 0 {
		deadline = start.Add(opts.TimeLimit)
	}
	opts.MaxEmbeddings, opts.TimeLimit = 0, 0
	opts.Cancel = stop
	opts.OnRun = nil
	if !countLocally {
		opts.OnRun = onRun
		if limits.OnRun == nil {
			opts.MaxRun = cappedCountRun
		}
	}
	newEngine := func(o enumerate.Options) (*enumerate.Engine, error) {
		eng, err := enumerate.NewEngine(plan.Query, plan.Data, plan.Cand, plan.Space, plan.Order, o)
		if err != nil {
			return nil, err
		}
		eng.SetDeadline(deadline)
		return eng, nil
	}

	tasks, err := buildTaskPool(plan, opts, newEngine, workers, res)
	if err != nil {
		return err
	}
	workers = max(1, min(workers, len(tasks)))

	engines := make([]*enumerate.Engine, workers)
	for w := range engines {
		if engines[w], err = newEngine(opts); err != nil {
			return err
		}
	}

	// Per-worker scheduler tallies. Each goroutine accumulates into
	// locals and writes its own slice element once before exiting — no
	// shared atomics on the task loop.
	res.Workers = make([]WorkerStats, workers)

	// Tasks are dealt round-robin so heavy neighbors spread out, then
	// idle workers rebalance by stealing half of a victim's remaining
	// deque.
	deques := make([]*taskDeque, workers)
	for w := range deques {
		deques[w] = &taskDeque{tasks: make([]enumTask, 0, len(tasks)/workers+1)}
	}
	for i, t := range tasks {
		d := deques[i%workers]
		d.tasks = append(d.tasks, t)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			eng, self := engines[w], deques[w]
			var tasks, steals, failed uint64
			defer func() {
				res.Workers[w] = WorkerStats{Tasks: tasks, Steals: steals, FailedSteals: failed}
			}()
			for {
				// Task-granular cancellation: the engines poll the flag
				// only every few thousand nodes, so without this check a
				// cancel raced with task start would still enumerate a
				// subtree per worker.
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
	wg.Wait()

	if opts.Profile {
		res.Profile = enumerate.NewSearchProfile(plan.Query.NumVertices())
		res.WorkerProfiles = make([]*enumerate.SearchProfile, workers)
	}
	// buildTaskPool already folded the probe's nodes, kernels and timeout
	// into res; the workers' add to them.
	var localEmb uint64
	for w, eng := range engines {
		st := eng.Stats()
		res.Nodes += st.Nodes
		res.Workers[w].Nodes = st.Nodes
		localEmb += st.Embeddings
		res.Kernels.Add(st.Kernels)
		res.TimedOut = res.TimedOut || st.TimedOut
		if opts.Profile {
			res.Profile.Merge(st.Profile)
			res.WorkerProfiles[w] = st.Profile
		}
	}
	if countLocally {
		res.Embeddings = localEmb
	} else {
		res.Embeddings = accepted.Load()
	}
	res.LimitHit = limitHit.Load()
	res.EnumTime = time.Since(start)
	return nil
}
