package intersect

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

// naive is the reference implementation all kernels must agree with.
func naive(a, b []uint32) []uint32 {
	inB := map[uint32]bool{}
	for _, x := range b {
		inB[x] = true
	}
	out := []uint32{}
	for _, x := range a {
		if inB[x] {
			out = append(out, x)
		}
	}
	return out
}

func randomSorted(rng *rand.Rand, n, max int) []uint32 {
	seen := map[uint32]bool{}
	for len(seen) < n {
		seen[uint32(rng.Intn(max))] = true
	}
	out := make([]uint32, 0, n)
	for x := range seen {
		out = append(out, x)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func TestKernelsAgreeWithNaive(t *testing.T) {
	kernels := map[string]func(dst, a, b []uint32) []uint32{
		"Merge":     Merge,
		"Galloping": Galloping,
		"Hybrid":    Hybrid,
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randomSorted(rng, rng.Intn(100), 500)
		b := randomSorted(rng, rng.Intn(100), 500)
		want := naive(a, b)
		for name, k := range kernels {
			got := k(nil, a, b)
			if len(got) == 0 && len(want) == 0 {
				continue
			}
			if !reflect.DeepEqual(got, want) {
				t.Logf("%s(%v, %v) = %v, want %v", name, a, b, got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestSkewedSizes(t *testing.T) {
	// Force the galloping path of Hybrid: |b| / |a| >= threshold.
	a := []uint32{25, 999, 4975}
	b := make([]uint32, 0, 200)
	for i := uint32(0); i < 200; i++ {
		b = append(b, i*25)
	}
	want := naive(a, b) // {25, 4975}
	if got := Hybrid(nil, a, b); !reflect.DeepEqual(got, want) {
		t.Errorf("Hybrid skewed = %v, want %v", got, want)
	}
	if got := Galloping(nil, b, a); !reflect.DeepEqual(got, want) {
		t.Errorf("Galloping with swapped args = %v, want %v", got, want)
	}
}

func TestEmptyInputs(t *testing.T) {
	a := []uint32{1, 2, 3}
	for _, k := range []func(dst, a, b []uint32) []uint32{Merge, Galloping, Hybrid} {
		if got := k(nil, a, nil); len(got) != 0 {
			t.Errorf("intersection with empty = %v", got)
		}
		if got := k(nil, nil, a); len(got) != 0 {
			t.Errorf("intersection with empty = %v", got)
		}
	}
}

func TestCount(t *testing.T) {
	a := []uint32{1, 3, 5, 7}
	b := []uint32{3, 4, 5, 8}
	if got := Count(a, b); got != 2 {
		t.Errorf("Count = %d, want 2", got)
	}
}

func TestContains(t *testing.T) {
	s := []uint32{2, 4, 8, 16}
	for _, x := range s {
		if !Contains(s, x) {
			t.Errorf("Contains(%d) = false", x)
		}
	}
	for _, x := range []uint32{0, 3, 17} {
		if Contains(s, x) {
			t.Errorf("Contains(%d) = true", x)
		}
	}
	if Contains(nil, 1) {
		t.Error("Contains on nil slice")
	}
}

// TestScratchSteadyStateAllocFree: after warmup, k-way intersection
// through a selector — its running intersection in the retained
// Scratch — with plain slices and a pre-grown dst performs no
// allocations.
func TestScratchSteadyStateAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	sets := make([][]uint32, 4)
	for i := range sets {
		sets[i] = randomSorted(rng, 200, 1000)
	}
	var s Selector
	dst := make([]uint32, 0, 1024)
	dst = s.Many(dst[:0], sets, nil) // warm
	if allocs := testing.AllocsPerRun(50, func() {
		dst = s.Many(dst[:0], sets, nil)
	}); allocs > 0 {
		t.Errorf("%.1f allocs per warmed Many, want 0", allocs)
	}
}
