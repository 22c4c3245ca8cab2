package core

import "sync"

// enumTask is one unit of schedulable work: the prefix of data vertices
// its search is pinned to — a root candidate alone, or a longer prefix
// where the splitter refined it — run via Engine.RunPrefix. Immutable
// once built: deques share it by header.
type enumTask []uint32

// taskDeque is one worker's chunk of the task pool. The owner pops from
// the tail; thieves take half of the remaining tasks from the head in a
// single lock acquisition (chunked stealing), so a mostly-idle run costs
// O(log tasks) steals per worker rather than one contended lock per
// task. The task set is static — no task ever spawns another — which
// keeps termination detection trivial: a full sweep of empty deques
// means all remaining work is already being executed.
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

// stealInto sweeps the other deques starting after w and moves one
// stolen chunk into self. It reports whether any work was found — false
// means every deque was empty at the time it was visited, and since
// tasks are never respawned the worker can exit — along with the number
// of empty victims probed during the sweep, the scheduler's
// failed-steal tally.
func stealInto(self *taskDeque, deques []*taskDeque, w int) (bool, int) {
	probes := 0
	for i := 1; i < len(deques); i++ {
		if chunk := deques[(w+i)%len(deques)].stealHalf(); chunk != nil {
			self.push(chunk...)
			return true, probes
		}
		probes++
	}
	return false, probes
}
