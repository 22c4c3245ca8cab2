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
// search space starts as one task per root candidate, dealt round-robin
// into per-worker deques and rebalanced by work stealing. No task size
// is guessed up front: on power-law data graphs one root candidate can
// own orders of magnitude more search tree than the rest, and which one
// shows only at run time. So a worker that finds every deque empty
// sleeps, and while any does, the running searches donate the untried
// candidates of their shallowest open level as prefix tasks
// (enumerate.Donor) — the heavy subtree is split while it runs, as
// often as idle workers need.
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
// it from (plan, limits); the worker engines are taken from the plan
// with the cap, deadline, cancel flag and sink swapped for their shared
// forms. They are not parked afterwards: a parallel request's search
// dwarfs building its engines, and two parked engines on each of
// enum-heavy's 48 plans read +1.0–1.5 MB rss_peak_mb (+3 %) for a qps
// change inside the noise (EXPERIMENTS.md "Warm hit builds nothing").
// The hooks below read the cap and the caller's sink (limits.OnRun —
// MatchPlan has resolved OnMatch into it) from limits, captured whole
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

	// deliver hands a run to the caller's sink, one call at a time. The
	// deferred unlock lets a worker whose sink panics leave the lock to
	// the others on its way to the recover below.
	deliver := func(m []uint32, u graph.Vertex, vs []uint32) int {
		matchLock.Lock()
		defer matchLock.Unlock()
		return limits.OnRun(m, u, vs)
	}

	// onRun is every worker engine's sink. It reserves the run's share of
	// the cap one embedding at a time, exactly as the per-embedding hook
	// did: a worker that reserved the remaining cap as a block would
	// touch the contended counter once per run, which is ROADMAP item 2
	// and waits for Benchmark v2 (item 1a) with the rest of it. What it
	// reserved goes to the caller's sink in one deliver call.
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
			taken := deliver(m, u, vs[:n])
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

	// The deadline is one for the whole run, set on each engine, not a
	// per-task TimeLimit; the cap is the shared one above, not a
	// per-engine MaxEmbeddings.
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

	roots := plan.Cand[plan.Order[0]]
	tasks := make([]enumTask, len(roots))
	for i := range roots {
		tasks[i] = roots[i : i+1 : i+1]
	}
	res.Split = &SplitInfo{Tasks: len(tasks), MaxPrefix: 1}
	// A run stopped before it starts does no search: the engines poll
	// the flag and the clock only every few thousand nodes.
	if stop.Load() {
		return nil
	}
	if !deadline.IsZero() && time.Now().After(deadline) {
		res.TimedOut = true
		return nil
	}

	p := newPool(tasks, workers)
	// Per-worker tallies. Each goroutine accumulates into its own slice
	// elements — its engine's Give runs on it too — and they are read
	// after the join: no shared atomics on the task loop.
	res.Workers = make([]WorkerStats, workers)
	donated := make([]int, workers)
	deepest := make([]int, workers)
	engines := make([]*enumerate.Engine, workers)
	for w := range engines {
		o := opts
		o.Donor = &enumerate.Donor{Idle: &p.idle, Give: func(prefix, rest []uint32) bool {
			if !p.deques[w].donate(prefix, rest) {
				return false
			}
			p.arrived()
			donated[w] += len(rest)
			deepest[w] = max(deepest[w], len(prefix)+1)
			return true
		}}
		eng, err := plan.takeEngine(o)
		if err != nil {
			return err
		}
		eng.SetDeadline(deadline)
		engines[w] = eng
	}

	// A panic in a worker — in the engine or in the caller's sink — would
	// kill the process from a goroutine no caller can recover on. The
	// worker recovers it and stops the others; the run returns the first
	// as ErrInternal, and its engines are not released: the one that
	// panicked may have left visited marks set.
	var (
		panicOnce sync.Once
		panicErr  error
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			eng, self := engines[w], p.deques[w]
			var tasks, steals, failed uint64
			defer func() {
				res.Workers[w] = WorkerStats{Tasks: tasks, Steals: steals, FailedSteals: failed}
			}()
			defer p.leave()
			defer func() {
				if r := recover(); r != nil {
					panicOnce.Do(func() { panicErr = recovered(r) })
					stop.Store(true)
				}
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
					seen := p.seen()
					stolen, probes := p.steal(w)
					failed += uint64(probes)
					if stolen {
						steals++
					} else if !p.park(seen, stop) {
						return
					}
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
	if panicErr != nil {
		return panicErr
	}
	for w := range donated {
		res.Split.Tasks += donated[w]
		res.Split.SplitTasks += donated[w]
		res.Split.MaxPrefix = max(res.Split.MaxPrefix, deepest[w])
	}

	if opts.Profile {
		res.Profile = enumerate.NewSearchProfile(plan.Query.NumVertices())
		res.WorkerProfiles = make([]*enumerate.SearchProfile, workers)
	}
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
		eng.Release()
	}
	// The cap and the sink count canonical embeddings; the orbit
	// multiplies them out, as on the sequential path.
	if countLocally {
		res.Embeddings = localEmb * plan.Orbit
	} else {
		res.Embeddings = accepted.Load() * plan.Orbit
	}
	res.LimitHit = limitHit.Load()
	res.EnumTime = time.Since(start)
	return nil
}
