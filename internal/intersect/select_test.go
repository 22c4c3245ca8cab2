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
	return []Policy{PolicyAdaptive, PolicyMerge, PolicyGallop, PolicyHybrid, PolicyBlock}
}

// TestSelectorPairAgreesAcrossPolicies is the core output invariant:
// every policy, with and without block layouts, produces the identical
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
		al, bl := layoutOf(f, 0), layoutOf(f, 1)
		want := naive(a, b)
		for _, p := range policies() {
			var s Selector
			s.SetPolicy(p)
			if got := s.Pair(nil, a, b, al, bl); !equal(got, want) {
				t.Fatalf("seed %d policy %v (layouts): got %v, want %v", seed, p, got, want)
			}
			if got := s.Pair(nil, a, b, Layout{}, Layout{}); !equal(got, want) {
				t.Fatalf("seed %d policy %v (no layouts): got %v, want %v", seed, p, got, want)
			}
			if len(a) > 0 && len(b) > 0 && s.Stats().Total() != 2 {
				t.Fatalf("seed %d policy %v: %d kernel executions tallied, want 2", seed, p, s.Stats().Total())
			}
		}
	}
}

// TestSelectorStaticPolicyKernels pins which kernel each static policy
// tallies, and that adaptive picks block under density (even skewed),
// gallop under sparse skew, merge otherwise.
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
	dv, sv, kv := layoutOf(f, 0), layoutOf(f, 1), layoutOf(f, 2)

	run := func(p Policy, a, b []uint32, al, bl Layout) KernelStats {
		var s Selector
		s.SetPolicy(p)
		s.Pair(nil, a, b, al, bl)
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
	// Block policy without layouts falls back to the hybrid switch.
	if st := run(PolicyBlock, dense, sparse, Layout{}, Layout{}); st[KernelBlock] != 0 || st.Total() != 1 {
		t.Errorf("block policy without layouts tallied %v", st)
	}
	// Hybrid: balanced sizes merge, GallopThreshold-skewed sizes gallop.
	if st := run(PolicyHybrid, dense, sparse, dv, sv); st[KernelMerge] != 1 {
		t.Errorf("hybrid on balanced sizes tallied %v", st)
	}
	if st := run(PolicyHybrid, skewSmall, sparse, kv, sv); st[KernelGallop] != 1 {
		t.Errorf("hybrid on skewed sizes tallied %v", st)
	}
	// Adaptive: density beats skew — a dense skewed pair takes the block
	// kernel (its block-key merge gallops), a sparse skewed pair fails
	// the density test and gallops, dense balanced inputs take the block
	// kernel, and without layouts it degrades to the hybrid choice.
	if st := run(PolicyAdaptive, skewSmall, dense, kv, dv); st[KernelBlock] != 1 {
		t.Errorf("adaptive on dense skewed sizes tallied %v", st)
	}
	if st := run(PolicyAdaptive, skewSmall, sparse, kv, sv); st[KernelGallop] != 1 {
		t.Errorf("adaptive on sparse skewed sizes tallied %v", st)
	}
	if st := run(PolicyAdaptive, dense, dense, dv, dv); st[KernelBlock] != 1 {
		t.Errorf("adaptive on dense inputs tallied %v", st)
	}
	if st := run(PolicyAdaptive, dense, sparse, dv, sv); st[KernelMerge] != 1 {
		t.Errorf("adaptive on sparse balanced inputs tallied %v", st)
	}
	if st := run(PolicyAdaptive, dense, dense, Layout{}, Layout{}); st[KernelMerge] != 1 {
		t.Errorf("adaptive without layouts tallied %v", st)
	}
	// Empty inputs execute no kernel at all.
	if st := run(PolicyAdaptive, nil, dense, Layout{}, dv); st.Total() != 0 {
		t.Errorf("empty input tallied %v", st)
	}
}

// TestSelectorManyAgreesWithScratch checks the k-way dispatcher against
// the established Scratch.IntersectMany on random inputs, for every
// policy, with and without layouts.
func TestSelectorManyAgreesWithScratch(t *testing.T) {
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
		f := buildFlat(sets)
		var sc Scratch
		ref := make([][]uint32, k)
		copy(ref, sets)
		want := sc.IntersectMany(nil, ref...)
		for _, p := range policies() {
			var s Selector
			s.SetPolicy(p)
			in := make([][]uint32, k)
			copy(in, sets)
			layouts := make([]Layout, k)
			for i := range layouts {
				layouts[i] = layoutOf(f, i)
			}
			if got := s.Many(nil, in, layouts); !equal(got, want) {
				t.Fatalf("seed %d policy %v (layouts): got %v, want %v", seed, p, got, want)
			}
			copy(in, sets)
			if got := s.Many(nil, in, nil); !equal(got, want) {
				t.Fatalf("seed %d policy %v (no layouts): got %v, want %v", seed, p, got, want)
			}
		}
	}
}

// TestSelectorManySteadyStateAllocFree mirrors the Scratch guarantee:
// after warmup, k-way dispatch through the selector allocates nothing.
func TestSelectorManySteadyStateAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	sets := [][]uint32{
		randomSorted(rng, 200, 1000),
		randomSorted(rng, 200, 1000),
		randomSorted(rng, 200, 1000),
	}
	f := buildFlat(sets)
	layouts := []Layout{layoutOf(f, 0), layoutOf(f, 1), layoutOf(f, 2)}
	var s Selector
	dst := make([]uint32, 0, 256)
	s.Many(dst, sets, layouts) // warm the scratch buffers
	for _, p := range policies() {
		s.SetPolicy(p)
		if n := testing.AllocsPerRun(100, func() {
			dst = s.Many(dst[:0], sets, layouts)
		}); n != 0 {
			t.Errorf("policy %v: %.1f allocs per k-way call, want 0", p, n)
		}
	}
}
