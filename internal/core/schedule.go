package core

import (
	"fmt"
	"sync"
)

// Schedule selects how parallel enumeration distributes the search
// space across workers (Limits.Schedule).
type Schedule uint8

const (
	// ScheduleWorkSteal (the default) turns root candidates — and, when
	// the root's candidate list is small relative to the worker count,
	// their depth-1 expansions — into task units held in per-worker
	// deques; an idle worker steals half of a victim's remaining tasks.
	// Wall-clock time tracks total work instead of the heaviest static
	// partition, which matters on power-law data graphs where one root
	// candidate can own orders of magnitude more search tree than the
	// rest.
	ScheduleWorkSteal Schedule = iota
	// ScheduleStrided is the static partition scheme: worker w explores
	// the root candidates at indices w, w+P, w+2P, ... with no
	// rebalancing. Kept as the skew-sensitive baseline the benchmarks
	// compare against.
	ScheduleStrided
)

var scheduleNames = map[Schedule]string{
	ScheduleWorkSteal: "steal",
	ScheduleStrided:   "strided",
}

func (s Schedule) String() string {
	if n, ok := scheduleNames[s]; ok {
		return n
	}
	return fmt.Sprintf("Schedule(%d)", s)
}

// ParseSchedule maps a name (as printed by String) back to a Schedule.
func ParseSchedule(s string) (Schedule, error) {
	for sc, name := range scheduleNames {
		if name == s {
			return sc, nil
		}
	}
	return 0, fmt.Errorf("core: unknown schedule %q (want steal or strided)", s)
}

// Schedules lists the scheduler modes in declaration order.
func Schedules() []Schedule { return []Schedule{ScheduleWorkSteal, ScheduleStrided} }

// DefaultSplitFactor: when the root vertex has fewer than
// workers*DefaultSplitFactor candidates, the scheduler refines root
// candidates into finer task units (depth-1 pairs, or cost-model-sized
// prefixes) so that a single heavy root cannot serialize the run. Larger
// candidate lists already provide enough task-level parallelism to
// balance through stealing alone.
const DefaultSplitFactor = 32

// SplitPolicy selects how the work-stealing scheduler sizes its task
// units when the root candidate list is small (Limits.Split).
type SplitPolicy uint8

const (
	// SplitCostModel (the default) estimates each task's subtree weight
	// from candidate cardinalities and edge selectivities, refined by the
	// probed fanout of its pinned prefix, and recursively splits any task
	// whose estimate exceeds a share of the total — below depth 1 when one
	// (root, second) pair still dominates. In adaptive (DP-iso) mode heavy
	// roots split on the runtime-chosen second vertex. The per-task
	// estimates sum to a predicted node count reported in
	// Result.Split/EXPLAIN against the measured one.
	SplitCostModel SplitPolicy = iota
	// SplitStatic is the pre-cost-model heuristic: in the small-root
	// regime every root candidate is expanded into all its depth-1
	// (root, second) pairs, with no weighting and no recursion. Kept as
	// the baseline the scheduling benchmarks compare against.
	SplitStatic
)

var splitPolicyNames = map[SplitPolicy]string{
	SplitCostModel: "cost",
	SplitStatic:    "static",
}

func (p SplitPolicy) String() string {
	if n, ok := splitPolicyNames[p]; ok {
		return n
	}
	return fmt.Sprintf("SplitPolicy(%d)", p)
}

// ParseSplitPolicy maps a name (as printed by String) back to a
// SplitPolicy.
func ParseSplitPolicy(s string) (SplitPolicy, error) {
	for p, name := range splitPolicyNames {
		if name == s {
			return p, nil
		}
	}
	return 0, fmt.Errorf("core: unknown split policy %q (want cost or static)", s)
}

// SplitPolicies lists the split policies in declaration order.
func SplitPolicies() []SplitPolicy { return []SplitPolicy{SplitCostModel, SplitStatic} }

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
