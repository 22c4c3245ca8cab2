package core

import (
	"sync"
	"sync/atomic"
	"time"

	"subgraphmatching/internal/enumerate"
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

// matchParallel runs the enumeration step across limits.Parallel
// goroutines. opts is the run's engine configuration as MatchPlan built
// it from (plan, limits); the worker and probe engines are made from it
// with the cap, deadline, cancel flag and match hook swapped for their
// shared forms. The per-embedding hooks below read the cap and the
// caller's callback from limits, captured whole as they always were:
// the cap counter's cache line is contended on every embedding and
// enum-heavy read 3 % slower with the two values copied into locals
// (EXPERIMENTS.md "One parallel runner").
func matchParallel(plan *Plan, opts enumerate.Options, limits Limits, res *Result) error {
	workers := limits.Parallel
	var (
		accepted  atomic.Uint64
		limitHit  atomic.Bool
		matchLock sync.Mutex
	)
	// The caller's cancel flag, when supplied, doubles as the shared stop
	// signal: an external store(true) halts every worker at its next
	// poll, and internal stop causes (cap reached, OnMatch abort) store
	// into the same flag — which is why Limits.Cancel is documented as
	// per-run.
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
	opts.OnMatch = nil
	if !countLocally {
		opts.OnMatch = onMatch
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
