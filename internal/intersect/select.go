package intersect

import "fmt"

// Policy selects how the per-call intersection kernel is chosen.
// PolicyAdaptive (the zero value and the default) is the paper's
// size-ratio switch: merge for inputs of similar size, galloping once
// the larger is GallopThreshold times the smaller. The static policies
// pin one kernel for the whole run — they exist for the Figure 10
// reproduction and for isolating kernels in benchmarks.
type Policy uint8

const (
	// PolicyAdaptive chooses merge or gallop per call from the size
	// ratio.
	PolicyAdaptive Policy = iota
	// PolicyMerge always uses the two-pointer merge.
	PolicyMerge
	// PolicyGallop always uses galloping search.
	PolicyGallop
	// PolicyBlock always uses the word-parallel block kernel when a
	// block layout is available, falling back to the size-ratio switch
	// otherwise — Figure 10's QFilter arm.
	PolicyBlock
)

var policyNames = [...]string{"adaptive", "merge", "gallop", "block"}

func (p Policy) String() string {
	if int(p) < len(policyNames) {
		return policyNames[p]
	}
	return fmt.Sprintf("Policy(%d)", uint8(p))
}

// ParsePolicy maps a policy name (adaptive, merge, gallop, block) to
// its Policy.
func ParsePolicy(s string) (Policy, error) {
	for i, name := range policyNames {
		if s == name {
			return Policy(i), nil
		}
	}
	return PolicyAdaptive, fmt.Errorf("unknown kernel policy %q (want adaptive, merge, gallop, or block)", s)
}

// Kernel identifies one executed pairwise kernel, for accounting.
type Kernel uint8

const (
	KernelMerge Kernel = iota
	KernelGallop
	KernelBlock
	// NumKernels bounds the Kernel enum (array-index use).
	NumKernels
)

var kernelNames = [NumKernels]string{"merge", "gallop", "block"}

func (k Kernel) String() string {
	if k < NumKernels {
		return kernelNames[k]
	}
	return fmt.Sprintf("Kernel(%d)", uint8(k))
}

// KernelNames lists the kernel label values in Kernel order — the
// domain of the smatch_intersect_kernel_total metric's kernel label.
func KernelNames() [NumKernels]string { return kernelNames }

// KernelStats counts pairwise kernel executions by kernel, indexed by
// Kernel. The zero value is ready to use.
type KernelStats [NumKernels]uint64

// Add accumulates another tally into s.
func (s *KernelStats) Add(o KernelStats) {
	for i := range s {
		s[i] += o[i]
	}
}

// Total returns the total pairwise kernel executions.
func (s KernelStats) Total() uint64 {
	var n uint64
	for _, v := range s {
		n += v
	}
	return n
}

// Map returns the nonzero tallies keyed by kernel name (nil when all
// zero) — the JSON/trace representation of the kernel mix.
func (s KernelStats) Map() map[string]uint64 {
	var m map[string]uint64
	for i, v := range s {
		if v != 0 {
			if m == nil {
				m = make(map[string]uint64, len(s))
			}
			m[kernelNames[i]] = v
		}
	}
	return m
}

// Selector is the per-engine kernel dispatcher. It owns the k-way
// scratch buffers (so steady-state calls stay allocation-free) and
// tallies every pairwise kernel execution for the run's kernel-mix
// stats. Not safe for concurrent use; each worker engine holds its own.
type Selector struct {
	policy Policy
	stats  KernelStats
	ix     Scratch
}

// SetPolicy sets the dispatch policy for subsequent calls.
func (s *Selector) SetPolicy(p Policy) { s.policy = p }

// Policy returns the current dispatch policy.
func (s *Selector) Policy() Policy { return s.policy }

// Stats returns the kernel-execution tally since the last reset.
func (s *Selector) Stats() KernelStats { return s.stats }

// ResetStats clears the kernel tally (run boundaries).
func (s *Selector) ResetStats() { s.stats = KernelStats{} }

// bySize is the size-ratio switch on two nonempty inputs: galloping
// when the larger is GallopThreshold times the smaller, merge otherwise.
func (s *Selector) bySize(dst, a, b []uint32) []uint32 {
	lmin, lmax := len(a), len(b)
	if lmin > lmax {
		lmin, lmax = lmax, lmin
	}
	if lmax/lmin >= GallopThreshold {
		s.stats[KernelGallop]++
		return Galloping(dst, a, b)
	}
	s.stats[KernelMerge]++
	return Merge(dst, a, b)
}

// Pair intersects two sorted slices under the selector's policy,
// appending to dst. av/bv are the inputs' block views (zero BlockView =
// unavailable), which only PolicyBlock reads; the slices and views must
// describe the same sets.
func (s *Selector) Pair(dst, a, b []uint32, av, bv BlockView) []uint32 {
	if len(a) == 0 || len(b) == 0 {
		return dst
	}
	switch s.policy {
	case PolicyMerge:
		s.stats[KernelMerge]++
		return Merge(dst, a, b)
	case PolicyGallop:
		s.stats[KernelGallop]++
		return Galloping(dst, a, b)
	case PolicyBlock:
		if av.Valid() && bv.Valid() {
			s.stats[KernelBlock]++
			return IntersectViews(dst, av, bv)
		}
	}
	return s.bySize(dst, a, b)
}

// pairWithSorted intersects a plain running intersection `a` (no view)
// with input `b` whose optional view is bv — the mid-k-way step where
// only one side still has a layout. The block kernel probes bv with a's
// elements.
func (s *Selector) pairWithSorted(dst, a, b []uint32, bv BlockView) []uint32 {
	if len(a) == 0 || len(b) == 0 {
		return dst
	}
	switch s.policy {
	case PolicyMerge:
		s.stats[KernelMerge]++
		return Merge(dst, a, b)
	case PolicyGallop:
		s.stats[KernelGallop]++
		return Galloping(dst, a, b)
	case PolicyBlock:
		if bv.Valid() {
			s.stats[KernelBlock]++
			return IntersectViewWithSorted(dst, bv, a)
		}
	}
	return s.bySize(dst, a, b)
}

// Many intersects k ≥ 0 sorted slices under the selector's policy,
// smallest first, appending to dst. With two inputs the intersection is
// written straight into dst; with more, the running intersection
// ping-pongs between the selector's Scratch buffers. views, when
// non-nil, must parallel sets (views[i] is sets[i]'s block view, zero
// when unavailable). Both slices may be reordered in place (smallest set
// moved first).
func (s *Selector) Many(dst []uint32, sets [][]uint32, views []BlockView) []uint32 {
	var v0, v1 BlockView
	switch len(sets) {
	case 0:
		return dst
	case 1:
		return append(dst, sets[0]...)
	case 2:
		if views != nil {
			v0, v1 = views[0], views[1]
		}
		return s.Pair(dst, sets[0], sets[1], v0, v1)
	}
	// Move the smallest set first; a full sort is overkill for the tiny k
	// seen in practice (k = number of backward neighbors).
	minIdx := 0
	for i, set := range sets {
		if len(set) < len(sets[minIdx]) {
			minIdx = i
		}
	}
	sets[0], sets[minIdx] = sets[minIdx], sets[0]
	if views != nil {
		views[0], views[minIdx] = views[minIdx], views[0]
		v0, v1 = views[0], views[1]
	}
	cur := s.Pair(s.ix.a[:0], sets[0], sets[1], v0, v1)
	tmp := s.ix.b[:0]
	for i := 2; i < len(sets); i++ {
		if len(cur) == 0 {
			break
		}
		var bv BlockView
		if views != nil {
			bv = views[i]
		}
		tmp = s.pairWithSorted(tmp[:0], cur, sets[i], bv)
		cur, tmp = tmp, cur
	}
	dst = append(dst, cur...)
	s.ix.a, s.ix.b = cur[:0], tmp[:0]
	return dst
}
