// Package intersect implements the sorted-set intersection kernels that
// drive the study's Algorithm 5 local candidate computation.
//
// Three strategies are provided, mirroring Section 3.3.2 and Figure 10 of
// the paper:
//
//   - Merge: the classic two-pointer merge, best when input sizes are
//     similar.
//   - Galloping: exponential search of the larger list for each element
//     of the smaller one, best when sizes are highly skewed (the
//     EmptyHeaded heuristic).
//   - Hybrid: picks Merge or Galloping based on the size ratio; this is
//     the paper's default, and what the Selector's default policy runs.
//
// A fourth, the QFilter-style block layout (see FlatBlocks), trades
// preprocessing and memory for word-parallel intersection and is compared
// against Hybrid in the Figure 10 reproduction (PolicyBlock).
//
// All kernels require strictly-increasing sorted inputs and produce sorted
// outputs.
package intersect

// GallopThreshold is the size-ratio above which Hybrid switches from the
// merge-based kernel to galloping. 32 follows the EmptyHeaded heuristic
// cited by the paper.
const GallopThreshold = 32

// Merge intersects two sorted slices with a two-pointer scan, appending
// the result to dst (which may be nil) and returning it.
func Merge(dst, a, b []uint32) []uint32 {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			dst = append(dst, a[i])
			i++
			j++
		}
	}
	return dst
}

// gallopSearch returns the smallest index k in s[lo:] with s[k] >= x,
// using doubling followed by binary search.
func gallopSearch(s []uint32, lo int, x uint32) int {
	bound := 1
	for lo+bound < len(s) && s[lo+bound] < x {
		bound *= 2
	}
	hi := lo + bound
	if hi > len(s) {
		hi = len(s)
	}
	lo += bound / 2
	// Binary search in (lo, hi].
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Galloping intersects a small sorted slice with a large one by galloping
// through the large slice. a should be the smaller input; the function
// swaps internally if not.
func Galloping(dst, a, b []uint32) []uint32 {
	if len(a) > len(b) {
		a, b = b, a
	}
	pos := 0
	for _, x := range a {
		pos = gallopSearch(b, pos, x)
		if pos == len(b) {
			break
		}
		if b[pos] == x {
			dst = append(dst, x)
			pos++
		}
	}
	return dst
}

// Hybrid intersects two sorted slices, choosing Merge for similar sizes
// and Galloping for skewed sizes. This is the study's default kernel.
func Hybrid(dst, a, b []uint32) []uint32 {
	la, lb := len(a), len(b)
	if la == 0 || lb == 0 {
		return dst
	}
	if la > lb {
		a, b = b, a
		la, lb = lb, la
	}
	if lb/la >= GallopThreshold {
		return Galloping(dst, a, b)
	}
	return Merge(dst, a, b)
}

// Count returns |a AND b| without materializing the intersection. Like
// Hybrid it switches to galloping at a GallopThreshold size ratio, so
// cardinality-only call sites get the same skew behavior as the
// materializing kernels.
func Count(a, b []uint32) int {
	la, lb := len(a), len(b)
	if la == 0 || lb == 0 {
		return 0
	}
	if la > lb {
		a, b = b, a
		la, lb = lb, la
	}
	if lb/la >= GallopThreshold {
		n, pos := 0, 0
		for _, x := range a {
			pos = gallopSearch(b, pos, x)
			if pos == len(b) {
				break
			}
			if b[pos] == x {
				n++
				pos++
			}
		}
		return n
	}
	n := 0
	i, j := 0, 0
	for i < la && j < lb {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			n++
			i++
			j++
		}
	}
	return n
}

// Contains reports whether sorted slice s contains x (binary search).
func Contains(s []uint32, x uint32) bool {
	lo, hi := 0, len(s)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(s) && s[lo] == x
}

// Scratch holds the two reusable intermediate buffers of a k-way
// intersection: the running intersection ping-pongs between them. The
// Selector that owns one amortizes the intermediate storage across
// calls, so its steady-state k-way calls are allocation-free (the
// buffers grow to the largest intermediate seen and stay there).
type Scratch struct {
	a, b []uint32
}
