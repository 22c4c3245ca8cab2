// Package bitset implements dense fixed-capacity bitsets.
//
// Bitsets back three different mechanisms in the study: candidate
// membership tests during filtering, variable domains in the Glasgow
// constraint-programming solver, and failing sets in DP-iso's pruning
// (the latter use the compact Mask64 type since queries have at most 64
// vertices).
package bitset

import "math/bits"

const wordBits = 64

// Set is a dense bitset over 0..n-1.
type Set struct {
	words []uint64
	n     int
}

// New returns a Set with capacity n, all bits clear.
func New(n int) *Set {
	return &Set{words: make([]uint64, (n+wordBits-1)/wordBits), n: n}
}

// Over returns a Set with capacity n over the caller's words, which
// must number (n+63)/64: the set aliases them, so a bitmap taken from a
// free list is a Set without a copy.
func Over(words []uint64, n int) Set { return Set{words: words, n: n} }

// Len returns the capacity of the set.
func (s *Set) Len() int { return s.n }

// Set sets bit i.
func (s *Set) Set(i uint32) { s.words[i/wordBits] |= 1 << (i % wordBits) }

// Clear clears bit i.
func (s *Set) Clear(i uint32) { s.words[i/wordBits] &^= 1 << (i % wordBits) }

// Contains reports whether bit i is set.
func (s *Set) Contains(i uint32) bool {
	return s.words[i/wordBits]&(1<<(i%wordBits)) != 0
}

// Count returns the number of set bits.
func (s *Set) Count() int {
	n := 0
	for _, w := range s.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// Any reports whether any bit is set.
func (s *Set) Any() bool {
	for _, w := range s.words {
		if w != 0 {
			return true
		}
	}
	return false
}

// Reset clears all bits.
func (s *Set) Reset() {
	for i := range s.words {
		s.words[i] = 0
	}
}

// IntersectWith performs s &= other in place.
func (s *Set) IntersectWith(other *Set) {
	for i := range s.words {
		s.words[i] &= other.words[i]
	}
}

// CopyFrom overwrites s with other's bits. The sets must have equal
// capacity.
func (s *Set) CopyFrom(other *Set) {
	copy(s.words, other.words)
	s.n = other.n
}

// Clone returns an independent copy of s.
func (s *Set) Clone() *Set {
	return &Set{words: append([]uint64(nil), s.words...), n: s.n}
}

// ForEach calls fn for every set bit in ascending order. Iteration stops
// if fn returns false.
func (s *Set) ForEach(fn func(i uint32) bool) {
	for wi, w := range s.words {
		for w != 0 {
			b := uint32(bits.TrailingZeros64(w))
			if !fn(uint32(wi*wordBits) + b) {
				return
			}
			w &= w - 1
		}
	}
}

// Words exposes the backing words for word-parallel operations (e.g. the
// Glasgow propagator). The slice aliases internal storage.
func (s *Set) Words() []uint64 { return s.words }

// MemoryBytes returns the heap footprint of the set's backing array.
func (s *Set) MemoryBytes() int64 { return int64(len(s.words)) * 8 }

// Mask64 is a bitset over at most 64 elements, used for failing sets over
// query vertices (the study's queries have <= 32 vertices).
type Mask64 uint64

// Mask64All returns the mask with bits 0..n-1 set.
func Mask64All(n int) Mask64 {
	if n >= 64 {
		return ^Mask64(0)
	}
	return Mask64(1)<<uint(n) - 1
}

// With returns m with bit i set.
func (m Mask64) With(i uint32) Mask64 { return m | 1<<i }

// Has reports whether bit i is set.
func (m Mask64) Has(i uint32) bool { return m&(1<<i) != 0 }

// Union returns m | other.
func (m Mask64) Union(other Mask64) Mask64 { return m | other }

// Empty reports whether no bit is set.
func (m Mask64) Empty() bool { return m == 0 }

// Count returns the number of set bits.
func (m Mask64) Count() int { return bits.OnesCount64(uint64(m)) }
