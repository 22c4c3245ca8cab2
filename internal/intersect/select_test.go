package intersect

import (
	"math/rand"
	"testing"
)

func TestParsePolicy(t *testing.T) {
	for p := PolicyAdaptive; p <= PolicyBlock; p++ {
		got, err := ParsePolicy(p.String())
		if err != nil || got != p {
			t.Errorf("ParsePolicy(%q) = %v, %v; want %v", p.String(), got, err, p)
		}
	}
	if _, err := ParsePolicy("simd"); err == nil {
		t.Error("ParsePolicy accepted an unknown name")
	}
	if Policy(200).String() != "Policy(200)" {
		t.Errorf("out-of-range Policy String = %q", Policy(200).String())
	}
}

func TestKernelStats(t *testing.T) {
	var s KernelStats
	if s.Total() != 0 || s.Map() != nil {
		t.Fatalf("zero stats: Total %d, Map %v", s.Total(), s.Map())
	}
	s[KernelMerge] = 3
	s[KernelBlock] = 2
	var o KernelStats
	o[KernelMerge] = 1
	o[KernelGallop] = 5
	s.Add(o)
	if s.Total() != 11 {
		t.Fatalf("Total = %d, want 11", s.Total())
	}
	m := s.Map()
	if m["merge"] != 4 || m["gallop"] != 5 || m["block"] != 2 {
		t.Fatalf("Map = %v", m)
	}
	for i, name := range KernelNames() {
		if Kernel(i).String() != name {
			t.Errorf("Kernel(%d).String() = %q, want %q", i, Kernel(i).String(), name)
		}
	}
}

// policies lists every dispatch policy a selector can run under.
func policies() []Policy {
	return []Policy{PolicyAdaptive, PolicyMerge, PolicyGallop, PolicyBlock}
}

// TestSelectorPairAgreesAcrossPolicies is the core output invariant:
// every policy, with and without block views, produces the identical
// intersection — policies change speed, never results.
func TestSelectorPairAgreesAcrossPolicies(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		max := []int{200, 3000, 80000}[rng.Intn(3)]
		na := rng.Intn(300)
		nb := na
		if rng.Intn(2) == 0 {
			nb = na * (GallopThreshold + rng.Intn(32)) // skewed pair
		}
		a := randomSorted(rng, na, max+na*2)
		b := randomSorted(rng, nb, max+nb*4)
		f := buildFlat([][]uint32{a, b})
		av, bv := f.View(0), f.View(1)
		want := naive(a, b)
		for _, p := range policies() {
			var s Selector
			s.SetPolicy(p)
			if got := s.Pair(nil, a, b, av, bv); !equal(got, want) {
				t.Fatalf("seed %d policy %v (views): got %v, want %v", seed, p, got, want)
			}
			if got := s.Pair(nil, a, b, BlockView{}, BlockView{}); !equal(got, want) {
				t.Fatalf("seed %d policy %v (no views): got %v, want %v", seed, p, got, want)
			}
			if len(a) > 0 && len(b) > 0 && s.Stats().Total() != 2 {
				t.Fatalf("seed %d policy %v: %d kernel executions tallied, want 2", seed, p, s.Stats().Total())
			}
		}
	}
}

// TestSelectorStaticPolicyKernels pins which kernel each policy
// tallies: the static ones their kernel, the block policy the block
// kernel only over views, and the adaptive default the size-ratio
// switch — merge on balanced sizes, gallop on GallopThreshold-skewed
// ones — whatever the views and the density.
func TestSelectorStaticPolicyKernels(t *testing.T) {
	dense := make([]uint32, 256) // 4 full blocks: 64 elements per block
	for i := range dense {
		dense[i] = uint32(i)
	}
	sparse := make([]uint32, 256) // 256 blocks, 1 element each
	for i := range sparse {
		sparse[i] = uint32(i * 64)
	}
	skewSmall := dense[:4]
	f := buildFlat([][]uint32{dense, sparse, skewSmall})
	dv, sv, kv := f.View(0), f.View(1), f.View(2)

	run := func(p Policy, a, b []uint32, av, bv BlockView) KernelStats {
		var s Selector
		s.SetPolicy(p)
		s.Pair(nil, a, b, av, bv)
		return s.Stats()
	}
	if st := run(PolicyMerge, dense, sparse, dv, sv); st[KernelMerge] != 1 {
		t.Errorf("merge policy tallied %v", st)
	}
	if st := run(PolicyGallop, dense, sparse, dv, sv); st[KernelGallop] != 1 {
		t.Errorf("gallop policy tallied %v", st)
	}
	if st := run(PolicyBlock, dense, sparse, dv, sv); st[KernelBlock] != 1 {
		t.Errorf("block policy tallied %v", st)
	}
	// Block policy without both views falls back to the size-ratio switch.
	if st := run(PolicyBlock, dense, sparse, BlockView{}, BlockView{}); st[KernelMerge] != 1 || st.Total() != 1 {
		t.Errorf("block policy without views tallied %v", st)
	}
	if st := run(PolicyBlock, skewSmall, sparse, BlockView{}, sv); st[KernelGallop] != 1 || st.Total() != 1 {
		t.Errorf("block policy with one view on skewed sizes tallied %v", st)
	}
	// Adaptive: balanced sizes merge, GallopThreshold-skewed sizes
	// gallop, dense or sparse, with views or without.
	for _, views := range []bool{true, false} {
		at := func(a, b []uint32, av, bv BlockView) KernelStats {
			if !views {
				av, bv = BlockView{}, BlockView{}
			}
			return run(PolicyAdaptive, a, b, av, bv)
		}
		if st := at(dense, sparse, dv, sv); st[KernelMerge] != 1 || st.Total() != 1 {
			t.Errorf("views=%v: adaptive on balanced sizes tallied %v", views, st)
		}
		if st := at(dense, dense, dv, dv); st[KernelMerge] != 1 || st.Total() != 1 {
			t.Errorf("views=%v: adaptive on dense inputs tallied %v", views, st)
		}
		if st := at(skewSmall, sparse, kv, sv); st[KernelGallop] != 1 || st.Total() != 1 {
			t.Errorf("views=%v: adaptive on sparse skewed sizes tallied %v", views, st)
		}
		if st := at(skewSmall, dense, kv, dv); st[KernelGallop] != 1 || st.Total() != 1 {
			t.Errorf("views=%v: adaptive on dense skewed sizes tallied %v", views, st)
		}
	}
	// Empty inputs execute no kernel at all.
	if st := run(PolicyAdaptive, nil, dense, BlockView{}, dv); st.Total() != 0 {
		t.Errorf("empty input tallied %v", st)
	}
}

// TestSelectorManyAgreesWithScratch checks the k-way dispatcher, whose
// running intersection lives in its Scratch buffers, against a naive
// fold, for every policy, with and without views: on fixed inputs (no
// sets, one set copied through, two written straight into dst, three
// reordered smallest first, an empty intermediate) and on random ones,
// through a fresh selector and through one shared across all inputs,
// whose buffers must not leak state from one call into the next.
func TestSelectorManyAgreesWithScratch(t *testing.T) {
	a := []uint32{1, 2, 3, 4, 5, 6}
	b := []uint32{2, 4, 6, 8}
	c := []uint32{4, 5, 6, 7}
	inputs := [][][]uint32{nil, {a}, {a, b}, {a, b, c}, {{1}, {2}, a}}
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		k := rng.Intn(6)
		sets := make([][]uint32, k)
		for i := range sets {
			n := rng.Intn(200)
			if rng.Intn(4) == 0 {
				n *= GallopThreshold
			}
			sets[i] = randomSorted(rng, n, 2000+n*4)
		}
		inputs = append(inputs, sets)
	}
	shared := map[Policy]*Selector{}
	for _, p := range policies() {
		shared[p] = new(Selector)
		shared[p].SetPolicy(p)
	}
	for i, sets := range inputs {
		f := buildFlat(sets)
		want := naiveMany(sets)
		for _, p := range policies() {
			var fresh Selector
			fresh.SetPolicy(p)
			for _, s := range []*Selector{&fresh, shared[p]} {
				in := make([][]uint32, len(sets))
				copy(in, sets)
				views := make([]BlockView, len(sets))
				for j := range views {
					views[j] = f.View(j)
				}
				if got := s.Many(nil, in, views); !equal(got, want) {
					t.Fatalf("input %d policy %v (views): got %v, want %v", i, p, got, want)
				}
				copy(in, sets)
				if got := s.Many(nil, in, nil); !equal(got, want) {
					t.Fatalf("input %d policy %v (no views): got %v, want %v", i, p, got, want)
				}
			}
		}
	}
}

// naiveMany is the k-way reference: sets[0] folded through naive.
func naiveMany(sets [][]uint32) []uint32 {
	if len(sets) == 0 {
		return nil
	}
	want := append([]uint32(nil), sets[0]...)
	for _, set := range sets[1:] {
		want = naive(want, set)
	}
	return want
}

// TestSelectorManySteadyStateAllocFree mirrors the Scratch guarantee:
// after warmup, k-way dispatch through the selector allocates nothing,
// under every policy, with block views.
func TestSelectorManySteadyStateAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	sets := [][]uint32{
		randomSorted(rng, 200, 1000),
		randomSorted(rng, 200, 1000),
		randomSorted(rng, 200, 1000),
	}
	f := buildFlat(sets)
	views := []BlockView{f.View(0), f.View(1), f.View(2)}
	var s Selector
	dst := make([]uint32, 0, 256)
	s.Many(dst, sets, views) // warm the scratch buffers
	for _, p := range policies() {
		s.SetPolicy(p)
		if n := testing.AllocsPerRun(100, func() {
			dst = s.Many(dst[:0], sets, views)
		}); n != 0 {
			t.Errorf("policy %v: %.1f allocs per k-way call, want 0", p, n)
		}
	}
}
