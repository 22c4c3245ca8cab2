package intersect

import (
	"math/rand"
	"testing"
)

// buildFlat materializes every set into one FlatBlocks arena via the
// two-phase build, the way candspace does it.
func buildFlat(sets [][]uint32) *FlatBlocks {
	offsets := make([]int32, len(sets)+1)
	for i, s := range sets {
		offsets[i+1] = offsets[i] + int32(CountBlocks(s))
	}
	f := NewFlatBlocks(offsets)
	for i, s := range sets {
		f.EncodeSet(i, s)
	}
	return f
}

func TestFlatBlocksRoundTrip(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		sets := make([][]uint32, 1+rng.Intn(8))
		for i := range sets {
			n := rng.Intn(300)
			sets[i] = randomSorted(rng, n, n+1+rng.Intn(2000))
		}
		f := buildFlat(sets)
		if f.NumSets() != len(sets) {
			t.Fatalf("NumSets = %d, want %d", f.NumSets(), len(sets))
		}
		totalBlocks, totalElems := 0, 0
		for i, s := range sets {
			v := f.View(i)
			if !v.Valid() {
				t.Fatalf("set %d: view not valid (len %d)", i, len(s))
			}
			got := v.Elements(nil)
			if !equal(got, s) {
				t.Fatalf("set %d: roundtrip %v, want %v", i, got, s)
			}
			if v.Count() != len(s) {
				t.Fatalf("set %d: Count = %d, want %d", i, v.Count(), len(s))
			}
			if n := CountBlocks(s); v.NumBlocks() != n {
				t.Fatalf("set %d: %d blocks, CountBlocks says %d", i, v.NumBlocks(), n)
			}
			totalBlocks += v.NumBlocks()
			totalElems += len(s)
		}
		if f.NumBlocks() != totalBlocks {
			t.Fatalf("NumBlocks = %d, want %d", f.NumBlocks(), totalBlocks)
		}
		if f.CountAll() != totalElems {
			t.Fatalf("CountAll = %d, want %d", f.CountAll(), totalElems)
		}
		if want := (len(sets)+1)*4 + totalBlocks*4 + totalBlocks*8; f.MemoryBytes() != want {
			t.Fatalf("MemoryBytes = %d, want %d", f.MemoryBytes(), want)
		}
	}
}

func TestBlockSetDenseBlocks(t *testing.T) {
	// 128 consecutive values occupy exactly two blocks.
	dense := make([]uint32, 128)
	for i := range dense {
		dense[i] = uint32(i)
	}
	if n := CountBlocks(dense); n != 2 {
		t.Errorf("CountBlocks(0..127) = %d, want 2", n)
	}
	if n := buildFlat([][]uint32{dense}).View(0).NumBlocks(); n != 2 {
		t.Errorf("View(0).NumBlocks = %d, want 2", n)
	}
}

func TestFlatBlocksEmptySetViewValid(t *testing.T) {
	f := buildFlat([][]uint32{{}, {1, 2, 3}, {}})
	for _, i := range []int{0, 2} {
		v := f.View(i)
		if !v.Valid() {
			t.Errorf("empty set %d: view reports invalid; empty and absent must differ", i)
		}
		if v.NumBlocks() != 0 || v.Count() != 0 {
			t.Errorf("empty set %d: %d blocks, %d elements", i, v.NumBlocks(), v.Count())
		}
	}
	if (BlockView{}).Valid() {
		t.Error("zero BlockView reports valid")
	}
}

func TestIntersectViewsAgreesWithNaive(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		// Vary density: small max → many shared blocks, large max → sparse.
		max := []int{500, 4000, 100000}[rng.Intn(3)]
		a := randomSorted(rng, rng.Intn(400), max)
		b := randomSorted(rng, rng.Intn(400), max)
		f := buildFlat([][]uint32{a, b})
		av, bv := f.View(0), f.View(1)
		want := naive(a, b)
		if got := IntersectViews(nil, av, bv); !equal(got, want) {
			t.Fatalf("seed %d: IntersectViews = %v, want %v", seed, got, want)
		}
		if got := IntersectViewWithSorted(nil, av, b); !equal(got, want) {
			t.Fatalf("seed %d: IntersectViewWithSorted = %v, want %v", seed, got, want)
		}
	}
}

// TestIntersectViewsGallopPath forces the block-key galloping branch:
// the short side has GallopThreshold× fewer blocks than the long side.
func TestIntersectViewsGallopPath(t *testing.T) {
	var a, b []uint32
	for i := 0; i < 64; i++ {
		a = append(a, uint32(i)) // one dense block
	}
	for i := 0; i < 64*GallopThreshold*2; i++ {
		b = append(b, uint32(i*64)) // one element per block, many blocks
	}
	f := buildFlat([][]uint32{a, b})
	av, bv := f.View(0), f.View(1)
	if len(bv.Keys)/len(av.Keys) < GallopThreshold {
		t.Fatalf("fixture does not reach the gallop threshold: %d/%d", len(bv.Keys), len(av.Keys))
	}
	want := naive(a, b)
	if len(want) == 0 {
		t.Fatal("fixture intersection is empty; the gallop path is untested")
	}
	if got := IntersectViews(nil, av, bv); !equal(got, want) {
		t.Fatalf("IntersectViews (gallop) = %v, want %v", got, want)
	}
}

// TestCountGallopPath covers the slice Count's skew switch against the
// merge-count answer.
func TestCountGallopPath(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	small := randomSorted(rng, 40, 100000)
	large := randomSorted(rng, 40*GallopThreshold*2, 100000)
	want := len(naive(small, large))
	if got := Count(small, large); got != want {
		t.Fatalf("Count(small, large) = %d, want %d", got, want)
	}
	if got := Count(large, small); got != want {
		t.Fatalf("Count(large, small) = %d, want %d", got, want)
	}
}

func equal(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
