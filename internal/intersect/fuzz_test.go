package intersect

import (
	"bytes"
	"testing"
)

// decodeSorted turns fuzz bytes into a sorted strictly-increasing set:
// each byte is a gap in [1,16], so mutated inputs stay valid while
// low-gap runs produce the dense shared-block layouts the word-parallel
// kernel targets and high gaps produce sparse one-element blocks.
func decodeSorted(raw []byte) []uint32 {
	out := make([]uint32, 0, len(raw))
	v := uint32(0)
	for _, b := range raw {
		v += uint32(b&15) + 1
		out = append(out, v)
	}
	return out
}

// FuzzIntersectKernels cross-checks every intersection implementation —
// the three slice kernels, the flat block arena layout, and the selector
// under every policy — for identical outputs and cardinalities on
// arbitrary inputs.
func FuzzIntersectKernels(f *testing.F) {
	f.Add([]byte{}, []byte{})
	f.Add([]byte{1, 1, 1, 1}, []byte{2, 4, 8})
	f.Add(bytes.Repeat([]byte{0}, 200), bytes.Repeat([]byte{15}, 3)) // dense vs skewed-small
	f.Add(bytes.Repeat([]byte{15}, 100), bytes.Repeat([]byte{1}, 100))
	f.Fuzz(func(t *testing.T, aRaw, bRaw []byte) {
		if len(aRaw) > 4096 || len(bRaw) > 4096 {
			t.Skip()
		}
		a, b := decodeSorted(aRaw), decodeSorted(bRaw)
		want := Merge(nil, a, b)

		if got := Galloping(nil, a, b); !equal(got, want) {
			t.Fatalf("Galloping = %v, want %v", got, want)
		}
		if got := Hybrid(nil, a, b); !equal(got, want) {
			t.Fatalf("Hybrid = %v, want %v", got, want)
		}
		if got := Count(a, b); got != len(want) {
			t.Fatalf("Count = %d, want %d", got, len(want))
		}

		fl := buildFlat([][]uint32{a, b})
		av, bv := fl.View(0), fl.View(1)
		if got := av.Elements(nil); !equal(got, a) {
			t.Fatalf("flat roundtrip = %v, want %v", got, a)
		}
		if got := IntersectViews(nil, av, bv); !equal(got, want) {
			t.Fatalf("IntersectViews = %v, want %v", got, want)
		}
		if got := CountViews(av, bv); got != len(want) {
			t.Fatalf("CountViews = %d, want %d", got, len(want))
		}
		if got := IntersectViewWithSorted(nil, av, b); !equal(got, want) {
			t.Fatalf("IntersectViewWithSorted = %v, want %v", got, want)
		}

		for _, p := range policies() {
			var s Selector
			s.SetPolicy(p)
			al, bl := layoutOf(fl, 0), layoutOf(fl, 1)
			if got := s.Pair(nil, a, b, al, bl); !equal(got, want) {
				t.Fatalf("Selector(%v).Pair = %v, want %v", p, got, want)
			}
			if got := s.Many(nil, [][]uint32{a, b, a}, []Layout{al, bl, al}); !equal(got, want) {
				t.Fatalf("Selector(%v).Many = %v, want %v", p, got, want)
			}
			if len(a) > 0 && len(b) > 0 && s.Stats().Total() == 0 {
				t.Fatalf("Selector(%v): no kernel executions tallied", p)
			}
		}
	})
}
