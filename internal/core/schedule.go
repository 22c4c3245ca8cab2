package core

import (
	"sync"
	"sync/atomic"
)

// enumTask is one unit of schedulable work: the prefix of data vertices
// its search is pinned to — a root candidate alone, or a longer prefix a
// running search donated — run via Engine.RunPrefix. Immutable once
// built: deques share it by header.
type enumTask []uint32

// SplitInfo reports the task pool of a parallel run: one task per root
// candidate, plus what running searches donated to idle workers.
type SplitInfo struct {
	// Tasks fed to the scheduler; SplitTasks of them were donated, and
	// pin more than the root vertex. MaxPrefix is the deepest pinned
	// prefix length (1 = root-grained tasks only).
	Tasks      int
	SplitTasks int
	MaxPrefix  int
	// Probes and PredictedNodes are always 0: nothing probes the search
	// or predicts its size before the run. They remain because the
	// benchmark harness reads them.
	Probes         uint64
	PredictedNodes uint64
}

// taskDeque is one worker's chunk of the task pool. The owner pops from
// the tail; thieves take half of the remaining tasks from the head in a
// single lock acquisition (chunked stealing), so a mostly-idle run costs
// O(log tasks) steals per worker rather than one contended lock per
// task. Donations refill a deque only while it is empty.
type taskDeque struct {
	mu    sync.Mutex
	head  int
	tasks []enumTask
}

// pop removes a task from the tail (the owner's end).
func (d *taskDeque) pop() (enumTask, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.head >= len(d.tasks) {
		return nil, false
	}
	t := d.tasks[len(d.tasks)-1]
	d.tasks = d.tasks[:len(d.tasks)-1]
	return t, true
}

// stealHalf removes and returns (a copy of) the first half of the
// remaining tasks, rounded up, from the head. It returns nil when the
// deque is empty.
func (d *taskDeque) stealHalf() []enumTask {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := len(d.tasks) - d.head
	if n <= 0 {
		return nil
	}
	k := (n + 1) / 2
	chunk := append([]enumTask(nil), d.tasks[d.head:d.head+k]...)
	d.head += k
	return chunk
}

// push appends tasks at the tail (used for seeding and for depositing a
// stolen chunk into the thief's own deque).
func (d *taskDeque) push(ts ...enumTask) {
	d.mu.Lock()
	d.tasks = append(d.tasks, ts...)
	d.mu.Unlock()
}

// donate fills an empty deque with one task prefix+c per candidate c of
// rest, all carved from one backing array, and reports whether it did:
// a deque that still holds tasks refuses, since idle workers can steal
// those first.
func (d *taskDeque) donate(prefix, rest []uint32) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.head < len(d.tasks) {
		return false
	}
	n := len(prefix) + 1
	buf := make([]uint32, 0, n*len(rest))
	d.head, d.tasks = 0, d.tasks[:0]
	for _, c := range rest {
		buf = append(append(buf, prefix...), c)
		d.tasks = append(d.tasks, buf[len(buf)-n:len(buf):len(buf)])
	}
	return true
}

// pool is a parallel run's scheduler: the workers' deques, and where a
// worker that found them all empty sleeps until a running search
// donates. Sleeping is the point — a spinning worker would burn the CPU
// the searches it waits on need.
type pool struct {
	deques []*taskDeque
	// idle counts the sleeping workers; every engine's Donor reads it.
	idle atomic.Int32

	mu   sync.Mutex
	wake sync.Cond
	// deposits counts the tasks' arrivals in a deque since the start —
	// donations and stolen chunks alike — so a worker can tell whether
	// anything arrived after its sweep found every deque empty. done is
	// set once the run is over: every worker idle at once, so nobody can
	// donate again, or one worker gone, which happens only when the
	// search must stop.
	deposits uint64
	done     bool
}

// newPool deals tasks round-robin, so heavy neighbours spread out, into
// one deque per worker.
func newPool(tasks []enumTask, workers int) *pool {
	p := &pool{deques: make([]*taskDeque, workers)}
	p.wake.L = &p.mu
	for w := range p.deques {
		p.deques[w] = &taskDeque{tasks: make([]enumTask, 0, len(tasks)/workers+1)}
	}
	for i, t := range tasks {
		d := p.deques[i%workers]
		d.tasks = append(d.tasks, t)
	}
	return p
}

// arrived counts a deposit and wakes the sleeping workers.
func (p *pool) arrived() {
	p.mu.Lock()
	p.deposits++
	p.mu.Unlock()
	p.wake.Broadcast()
}

// seen is the deposit count a worker's sweep starts from.
func (p *pool) seen() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.deposits
}

// steal sweeps the other deques starting after w and moves one stolen
// chunk into w's. It reports whether any work was found, along with the
// number of empty victims probed during the sweep, the scheduler's
// failed-steal tally.
func (p *pool) steal(w int) (bool, int) {
	probes := 0
	for i := 1; i < len(p.deques); i++ {
		if chunk := p.deques[(w+i)%len(p.deques)].stealHalf(); chunk != nil {
			p.deques[w].push(chunk...)
			p.arrived()
			return true, probes
		}
		probes++
	}
	return false, probes
}

// park puts a worker whose sweep, begun at deposit count seen, found no
// work to sleep until a deposit, the end of the run or stop. It reports
// whether the worker should sweep again; false means it must exit.
func (p *pool) park(seen uint64, stop *atomic.Bool) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.idle.Add(1)
	defer p.idle.Add(-1)
	for p.deposits == seen && !p.done && !stop.Load() {
		if int(p.idle.Load()) == len(p.deques) {
			p.done = true
			p.wake.Broadcast()
			break
		}
		p.wake.Wait()
	}
	return !p.done && !stop.Load()
}

// leave ends the run for the sleeping workers: a worker exits only once
// the search must stop (or the run is done), and a stop set from outside
// the run — the caller's cancel flag — wakes nobody by itself.
func (p *pool) leave() {
	p.mu.Lock()
	p.done = true
	p.mu.Unlock()
	p.wake.Broadcast()
}
