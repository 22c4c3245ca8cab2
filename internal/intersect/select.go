package intersect

import "fmt"

// Policy selects how the per-call intersection kernel is chosen.
// PolicyAdaptive (the zero value and the default) picks merge, gallop,
// or the word-parallel block kernel per call from the input sizes, the
// size ratio, and the block density recorded when the sets were built.
// The static policies pin one kernel for the whole run — they exist for
// the Figure 10 reproduction and for isolating kernels in benchmarks.
type Policy uint8

const (
	// PolicyAdaptive chooses merge/gallop/block per call.
	PolicyAdaptive Policy = iota
	// PolicyMerge always uses the two-pointer merge.
	PolicyMerge
	// PolicyGallop always uses galloping search.
	PolicyGallop
	// PolicyHybrid applies the paper's size-ratio switch between merge
	// and gallop (the pre-adaptive default), never the block kernel.
	PolicyHybrid
	// PolicyBlock always uses the word-parallel block kernel when a
	// block layout is available, falling back to Hybrid otherwise.
	PolicyBlock
)

var policyNames = [...]string{"adaptive", "merge", "gallop", "hybrid", "block"}

func (p Policy) String() string {
	if int(p) < len(policyNames) {
		return policyNames[p]
	}
	return fmt.Sprintf("Policy(%d)", uint8(p))
}

// ParsePolicy maps a policy name (adaptive, merge, gallop, hybrid,
// block) to its Policy.
func ParsePolicy(s string) (Policy, error) {
	for i, name := range policyNames {
		if s == name {
			return Policy(i), nil
		}
	}
	return PolicyAdaptive, fmt.Errorf("unknown kernel policy %q (want adaptive, merge, gallop, hybrid, or block)", s)
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

// DenseFactor gates the adaptive block-kernel choice: the block kernel
// is picked only when the inputs average at least DenseFactor elements
// per occupied 64-wide block (blocks(a)+blocks(b) ≤ (|a|+|b|)/
// DenseFactor). Below that density the per-block overhead exceeds the
// word-parallel gain — the QFilter trade-off Figure 10 measures.
const DenseFactor = 2

// Selector is the per-engine adaptive kernel dispatcher. It owns the
// k-way scratch buffers (so steady-state calls stay allocation-free)
// and tallies every pairwise kernel execution for the run's kernel-mix
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

// chooseAdaptive picks the kernel for a pair under PolicyAdaptive from
// the input sizes and block counts alone. a must be the smaller input.
// The density test runs first: when both
// inputs are dense enough to amortize the per-block overhead, the
// word-parallel kernel wins even under heavy skew, because
// IntersectViews gallops its block-key merge — O(blocks(a)·log
// blocks(b)) key steps, a 64× coarser walk than element galloping.
// Sparse inputs fail the density test; those gallop at a
// GallopThreshold size ratio and merge otherwise.
func chooseAdaptive(la, lb, ba, bb int, haveViews bool) Kernel {
	if haveViews && (ba+bb)*DenseFactor <= la+lb {
		return KernelBlock
	}
	if lb/la >= GallopThreshold {
		return KernelGallop
	}
	return KernelMerge
}

// Pair intersects two sorted slices under the selector's policy,
// appending to dst. al/bl are the inputs' block layouts (zero Layout =
// unavailable); the slices and layouts must describe the same sets. A
// view is read from its arena only when the block kernel is picked.
func (s *Selector) Pair(dst, a, b []uint32, al, bl Layout) []uint32 {
	la, lb := len(a), len(b)
	if la == 0 || lb == 0 {
		return dst
	}
	if la > lb {
		a, b = b, a
		al, bl = bl, al
		la, lb = lb, la
	}
	switch s.policy {
	case PolicyMerge:
		s.stats[KernelMerge]++
		return Merge(dst, a, b)
	case PolicyGallop:
		s.stats[KernelGallop]++
		return Galloping(dst, a, b)
	case PolicyHybrid:
		if lb/la >= GallopThreshold {
			s.stats[KernelGallop]++
			return Galloping(dst, a, b)
		}
		s.stats[KernelMerge]++
		return Merge(dst, a, b)
	case PolicyBlock:
		if al.Valid() && bl.Valid() {
			s.stats[KernelBlock]++
			return IntersectViews(dst, al.View(), bl.View())
		}
		if lb/la >= GallopThreshold {
			s.stats[KernelGallop]++
			return Galloping(dst, a, b)
		}
		s.stats[KernelMerge]++
		return Merge(dst, a, b)
	default: // PolicyAdaptive
		k := chooseAdaptive(la, lb, al.Blocks, bl.Blocks, al.Valid() && bl.Valid())
		s.stats[k]++
		switch k {
		case KernelGallop:
			return Galloping(dst, a, b)
		case KernelBlock:
			return IntersectViews(dst, al.View(), bl.View())
		default:
			return Merge(dst, a, b)
		}
	}
}

// pairWithSorted intersects a plain running intersection `a` (no
// layout) with input `b` whose optional layout is bl — the mid-k-way
// step where only one side still has a layout. The block kernel probes
// b's view with a's elements, so its density test looks at b alone.
func (s *Selector) pairWithSorted(dst, a, b []uint32, bl Layout) []uint32 {
	la, lb := len(a), len(b)
	if la == 0 || lb == 0 {
		return dst
	}
	lmin, lmax := la, lb
	if lmin > lmax {
		lmin, lmax = lmax, lmin
	}
	switch s.policy {
	case PolicyMerge:
		s.stats[KernelMerge]++
		return Merge(dst, a, b)
	case PolicyGallop:
		s.stats[KernelGallop]++
		return Galloping(dst, a, b)
	case PolicyHybrid:
		if lmax/lmin >= GallopThreshold {
			s.stats[KernelGallop]++
			return Galloping(dst, a, b)
		}
		s.stats[KernelMerge]++
		return Merge(dst, a, b)
	case PolicyBlock:
		if bl.Valid() {
			s.stats[KernelBlock]++
			return IntersectViewWithSorted(dst, bl.View(), a)
		}
		if lmax/lmin >= GallopThreshold {
			s.stats[KernelGallop]++
			return Galloping(dst, a, b)
		}
		s.stats[KernelMerge]++
		return Merge(dst, a, b)
	default: // PolicyAdaptive
		if lmax/lmin >= GallopThreshold {
			s.stats[KernelGallop]++
			return Galloping(dst, a, b)
		}
		if bl.Valid() && bl.Blocks*DenseFactor <= lb {
			s.stats[KernelBlock]++
			return IntersectViewWithSorted(dst, bl.View(), a)
		}
		s.stats[KernelMerge]++
		return Merge(dst, a, b)
	}
}

// Many intersects k ≥ 0 sorted slices under the selector's policy,
// appending to dst — the selector-dispatched analogue of
// Scratch.IntersectMany. layouts, when non-nil, must parallel sets
// (layouts[i] is sets[i]'s block layout, zero when unavailable). Both
// slices may be reordered in place (smallest set moved first).
func (s *Selector) Many(dst []uint32, sets [][]uint32, layouts []Layout) []uint32 {
	var l0, l1 Layout
	switch len(sets) {
	case 0:
		return dst
	case 1:
		return append(dst, sets[0]...)
	case 2:
		if layouts != nil {
			l0, l1 = layouts[0], layouts[1]
		}
		return s.Pair(dst, sets[0], sets[1], l0, l1)
	}
	minIdx := 0
	for i, set := range sets {
		if len(set) < len(sets[minIdx]) {
			minIdx = i
		}
	}
	sets[0], sets[minIdx] = sets[minIdx], sets[0]
	if layouts != nil {
		layouts[0], layouts[minIdx] = layouts[minIdx], layouts[0]
		l0, l1 = layouts[0], layouts[1]
	}
	cur := s.Pair(s.ix.a[:0], sets[0], sets[1], l0, l1)
	tmp := s.ix.b[:0]
	for i := 2; i < len(sets); i++ {
		if len(cur) == 0 {
			break
		}
		var bl Layout
		if layouts != nil {
			bl = layouts[i]
		}
		tmp = s.pairWithSorted(tmp[:0], cur, sets[i], bl)
		cur, tmp = tmp, cur
	}
	dst = append(dst, cur...)
	s.ix.a, s.ix.b = cur[:0], tmp[:0]
	return dst
}
