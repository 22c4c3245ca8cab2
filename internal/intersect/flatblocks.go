package intersect

import "math/bits"

// FlatBlocks is the arena form of the QFilter-style block layout. Values
// are grouped into 64-wide blocks keyed by value>>6, each block storing a
// 64-bit occupancy word; intersecting two sets merges their block key
// lists and ANDs the words, so one machine instruction covers up to 64
// set elements — the effect the SIMD byte-wise QFilter achieves. Like
// the real QFilter, the layout wins when neighbor sets are dense (many
// elements share a block) and loses on sparse sets, where the per-block
// overhead exceeds the word-parallel gain; Figure 10's reproduction
// relies on exactly this trade-off.
//
// Many sets share one keys/words arena, with per-set boundaries in a
// single offsets array (a CSR over blocks). Compared to a boxed layout
// per set it removes the pointer and the two slice headers per set, so
// materializing a candidate space allocates O(edges) objects instead of
// O(candidates) — the layout GSI uses to make block intersection the
// default rather than a variant.
//
// Sets are addressed by index; View returns a zero-copy window into the
// arenas. A FlatBlocks is built in two phases — count blocks per set
// (CountBlocks), allocate exactly (NewFlatBlocks), then encode each set
// into its precomputed range (EncodeSet) — so parallel builders can fill
// disjoint ranges without synchronization and the result is
// byte-identical at any worker count.
type FlatBlocks struct {
	offsets []int32  // len = numSets+1; block range of set i is [offsets[i], offsets[i+1])
	keys    []uint32 // shared sorted block-key arena (value >> 6)
	words   []uint64 // occupancy word per block
}

// BlockView is one set's zero-copy window into a FlatBlocks arena (or
// any keys/words pair). The zero value is "no block layout available";
// kernels treat it as absent, not as an empty set.
type BlockView struct {
	Keys  []uint32
	Words []uint64
}

// Valid reports whether the view carries a block layout. An empty set
// that was materialized still reports true (non-nil zero-length keys).
func (v BlockView) Valid() bool { return v.Keys != nil }

// NumBlocks returns the number of 64-wide blocks in the view.
func (v BlockView) NumBlocks() int { return len(v.Keys) }

// Count returns the number of elements in the view (popcount sum).
func (v BlockView) Count() int {
	n := 0
	for _, w := range v.Words {
		n += bits.OnesCount64(w)
	}
	return n
}

// Elements decodes the view back to a sorted slice, appended to dst.
func (v BlockView) Elements(dst []uint32) []uint32 {
	for i, key := range v.Keys {
		dst = appendBlock(dst, key, v.Words[i])
	}
	return dst
}

// Arena hands out the block views of the sets it holds, by index. An
// arena may encode its sets on the first View, so one that no kernel
// reads is never encoded.
type Arena interface {
	View(i int) BlockView
}

// Layout is one set's block layout as the kernel selector sees it:
// Blocks, the number of 64-wide blocks the set occupies — all the
// density test reads, known before any arena is encoded — and set Index
// of Arena, which only the block kernel reads. The zero Layout is "no
// block layout".
type Layout struct {
	Blocks int
	Arena  Arena
	Index  int
}

// Valid reports whether the set has a block layout.
func (l Layout) Valid() bool { return l.Arena != nil }

// View returns the set's block view from its arena.
func (l Layout) View() BlockView { return l.Arena.View(l.Index) }

// CountBlocks returns how many 64-wide blocks a sorted strictly-
// increasing slice occupies — the pass-1 sizing primitive for the
// two-phase build.
func CountBlocks(sorted []uint32) int {
	n := 0
	for i := 0; i < len(sorted); {
		key := sorted[i] >> 6
		for i < len(sorted) && sorted[i]>>6 == key {
			i++
		}
		n++
	}
	return n
}

// NewFlatBlocks allocates the arena for sets whose block counts are
// known: offsets holds their running totals (len numSets+1, starting at
// 0; set i occupies blocks offsets[i]:offsets[i+1]) and is retained as
// the arena's own. Every set's range starts empty-but-reserved; fill
// with EncodeSet.
func NewFlatBlocks(offsets []int32) *FlatBlocks {
	total := offsets[len(offsets)-1]
	return &FlatBlocks{
		offsets: offsets,
		keys:    make([]uint32, total),
		words:   make([]uint64, total),
	}
}

// EncodeSet writes set i's block encoding into its reserved arena range.
// The sorted input must occupy exactly the number of blocks counted for
// it in pass 1 (CountBlocks); distinct i are safe to encode concurrently.
func (f *FlatBlocks) EncodeSet(i int, sorted []uint32) {
	pos := f.offsets[i]
	for j := 0; j < len(sorted); {
		key := sorted[j] >> 6
		var w uint64
		for j < len(sorted) && sorted[j]>>6 == key {
			w |= 1 << (sorted[j] & 63)
			j++
		}
		f.keys[pos] = key
		f.words[pos] = w
		pos++
	}
}

// View returns set i's zero-copy window. Views of a fully encoded
// FlatBlocks are always Valid, including empty sets.
func (f *FlatBlocks) View(i int) BlockView {
	lo, hi := f.offsets[i], f.offsets[i+1]
	// Slice from the arena head so an empty range still yields a non-nil
	// Keys (Valid view of an empty set), not a nil slice.
	return BlockView{Keys: f.keys[lo:hi:hi], Words: f.words[lo:hi:hi]}
}

// NumSets returns the number of sets in the arena.
func (f *FlatBlocks) NumSets() int { return len(f.offsets) - 1 }

// NumBlocks returns the total block count across all sets.
func (f *FlatBlocks) NumBlocks() int { return len(f.keys) }

// CountAll returns the total element count across all sets.
func (f *FlatBlocks) CountAll() int {
	n := 0
	for _, w := range f.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// MemoryBytes returns the arena's memory footprint.
func (f *FlatBlocks) MemoryBytes() int {
	return len(f.offsets)*4 + len(f.keys)*4 + len(f.words)*8
}

// IntersectViews intersects two block views, appending the decoded
// sorted result to dst. Balanced block-key lists use a two-pointer
// merge; when one side has GallopThreshold× more blocks the short
// side's keys gallop through the long side's — the block-level analogue
// of the Hybrid slice kernel.
func IntersectViews(dst []uint32, a, b BlockView) []uint32 {
	if len(a.Keys) > len(b.Keys) {
		a, b = b, a
	}
	if len(a.Keys) == 0 {
		return dst
	}
	if len(b.Keys)/len(a.Keys) >= GallopThreshold {
		pos := 0
		for i, key := range a.Keys {
			pos = gallopSearch(b.Keys, pos, key)
			if pos == len(b.Keys) {
				break
			}
			if b.Keys[pos] == key {
				if w := a.Words[i] & b.Words[pos]; w != 0 {
					dst = appendBlock(dst, key, w)
				}
				pos++
			}
		}
		return dst
	}
	i, j := 0, 0
	for i < len(a.Keys) && j < len(b.Keys) {
		switch {
		case a.Keys[i] < b.Keys[j]:
			i++
		case a.Keys[i] > b.Keys[j]:
			j++
		default:
			if w := a.Words[i] & b.Words[j]; w != 0 {
				dst = appendBlock(dst, a.Keys[i], w)
			}
			i++
			j++
		}
	}
	return dst
}

// appendBlock decodes one occupancy word into dst.
func appendBlock(dst []uint32, key uint32, w uint64) []uint32 {
	base := key << 6
	for w != 0 {
		dst = append(dst, base+uint32(bits.TrailingZeros64(w)))
		w &= w - 1
	}
	return dst
}

// CountViews returns the intersection cardinality of two block views
// without decoding, with the same skew switch as IntersectViews.
func CountViews(a, b BlockView) int {
	if len(a.Keys) > len(b.Keys) {
		a, b = b, a
	}
	if len(a.Keys) == 0 {
		return 0
	}
	n := 0
	if len(b.Keys)/len(a.Keys) >= GallopThreshold {
		pos := 0
		for i, key := range a.Keys {
			pos = gallopSearch(b.Keys, pos, key)
			if pos == len(b.Keys) {
				break
			}
			if b.Keys[pos] == key {
				n += bits.OnesCount64(a.Words[i] & b.Words[pos])
				pos++
			}
		}
		return n
	}
	i, j := 0, 0
	for i < len(a.Keys) && j < len(b.Keys) {
		switch {
		case a.Keys[i] < b.Keys[j]:
			i++
		case a.Keys[i] > b.Keys[j]:
			j++
		default:
			n += bits.OnesCount64(a.Words[i] & b.Words[j])
			i++
			j++
		}
	}
	return n
}

// IntersectViewWithSorted intersects a block view with a plain sorted
// slice, appending to dst: each element of b probes the view's keys with
// a monotone cursor. Used mid-k-way when the running intersection is a
// plain slice but the next input has a block layout.
func IntersectViewWithSorted(dst []uint32, a BlockView, b []uint32) []uint32 {
	ai := 0
	for _, x := range b {
		key := x >> 6
		for ai < len(a.Keys) && a.Keys[ai] < key {
			ai++
		}
		if ai == len(a.Keys) {
			break
		}
		if a.Keys[ai] == key && a.Words[ai]&(1<<(x&63)) != 0 {
			dst = append(dst, x)
		}
	}
	return dst
}
