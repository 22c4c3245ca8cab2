// Package par provides the deterministic task fan-out primitive shared
// by the parallel preprocessing phases (candidate filtering in package
// filter and candidate-space construction in package candspace).
//
// It is the preprocessing analogue of the enumeration scheduler in
// package core, but with a stricter contract on both sides. Results
// must be byte-identical for every worker count, so a task's output may
// depend only on its task index and on state that is immutable for the
// duration of the Run call, never on which worker executed it or in
// which order tasks ran. And the task-to-worker assignment is a static
// round-robin interleave rather than a dynamic cursor: preprocessing
// tasks are pre-chunked to uniform index ranges (so dynamic stealing
// buys little), and a fixed assignment makes the per-worker work
// tallies — and therefore the projected makespan MakespanBound reports —
// a property of the partition itself, reproducible on any host. A
// dynamic cursor's tallies collapse to one worker whenever the tasks
// are shorter than a scheduling quantum on a CPU-constrained runner,
// which says nothing about how the partition would scale. The
// interleave (task i on worker i%workers) stills spreads systematic
// skew, e.g. the tail chunks of each candidate pool being smaller.
package par

import "sync"

// Run executes tasks 0..n-1 across up to `workers` goroutines and
// returns the per-worker work tallies (the summed return values of fn).
// Worker w runs tasks w, w+workers, w+2·workers, …; fn(w, task) returns
// the work units task consumed (any cost proxy — the tallies feed
// MakespanBound).
//
// fn must be safe for concurrent invocation on distinct task indices,
// may use w to index per-worker scratch, and must write only
// task-indexed (or per-worker) state. workers is clamped to [1, n];
// with one worker, fn runs inline on the caller's goroutine.
func Run(workers, n int, fn func(worker, task int) uint64) []uint64 {
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	work := make([]uint64, workers)
	if workers == 1 {
		var total uint64
		for t := 0; t < n; t++ {
			total += fn(0, t)
		}
		work[0] = total
		return work
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var total uint64
			for t := w; t < n; t += workers {
				total += fn(w, t)
			}
			work[w] = total
		}(w)
	}
	wg.Wait()
	return work
}

// Frontier is the level-synchronous companion to Run: one worker pool
// whose per-worker scratch survives across many small task waves. The
// tree-indexed filters (CFL, CECI) advance a BFS frontier one
// dependency wave at a time — each wave is a Run-style fan-out whose
// tasks read state frozen at the wave boundary — and re-allocating the
// workers' bitsets and label counters per wave would dwarf the work of
// the small waves. A Frontier allocates the scratch once and threads a
// running per-worker work tally across every wave, so multi-wave
// pipelines report one makespan-meaningful tally like a single Run.
//
// The determinism contract is Run's, held per wave: a task's output may
// depend only on its task index and on state immutable for the duration
// of its wave. Scratch handed to tasks must be reset by the task itself
// before reuse (cheapest: undo only what the task marked).
type Frontier[S any] struct {
	workers int
	scratch []S
	tally   []uint64
}

// NewFrontier builds a pool of `workers` slots, calling scratch(w) once
// per slot. workers is clamped to at least 1.
func NewFrontier[S any](workers int, scratch func(w int) S) *Frontier[S] {
	if workers < 1 {
		workers = 1
	}
	f := &Frontier[S]{
		workers: workers,
		scratch: make([]S, workers),
		tally:   make([]uint64, workers),
	}
	for w := range f.scratch {
		f.scratch[w] = scratch(w)
	}
	return f
}

// Workers returns the pool's worker count.
func (f *Frontier[S]) Workers() int { return f.workers }

// Wave fans tasks 0..n-1 out across the pool and blocks until every
// task has finished — the caller's barrier between dependency waves.
// fn receives the executing worker's scratch and the task index and
// returns the task's work units, accumulated into the pool tally.
func (f *Frontier[S]) Wave(n int, fn func(sc S, task int) uint64) {
	if n <= 0 {
		return
	}
	work := Run(f.workers, n, func(w, t int) uint64 {
		return fn(f.scratch[w], t)
	})
	Accumulate(f.tally, work)
}

// Tally returns the per-worker work accumulated across all waves so
// far. The slice is live — callers should copy or Accumulate it.
func (f *Frontier[S]) Tally() []uint64 { return f.tally }

// MakespanBound returns sum/max over the per-worker tallies: the speedup
// this work distribution would admit on unconstrained cores (the same
// metric Result.Workers[w].Nodes feeds for enumeration). It returns 1 for
// empty or all-zero tallies.
func MakespanBound(work []uint64) float64 {
	var total, max uint64
	for _, w := range work {
		total += w
		if w > max {
			max = w
		}
	}
	if max == 0 {
		return 1
	}
	return float64(total) / float64(max)
}

// Accumulate adds src elementwise into dst (which must be at least as
// long as src) so multi-phase pipelines can merge per-phase tallies into
// one per-worker total.
func Accumulate(dst, src []uint64) {
	for i, v := range src {
		dst[i] += v
	}
}
