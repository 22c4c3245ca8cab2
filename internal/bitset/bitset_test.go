package bitset

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSetBasics(t *testing.T) {
	s := New(130)
	if s.Len() != 130 {
		t.Fatalf("Len = %d", s.Len())
	}
	if s.Any() {
		t.Error("new set should be empty")
	}
	s.Set(0)
	s.Set(63)
	s.Set(64)
	s.Set(129)
	for _, i := range []uint32{0, 63, 64, 129} {
		if !s.Contains(i) {
			t.Errorf("Contains(%d) = false", i)
		}
	}
	if s.Contains(1) || s.Contains(128) {
		t.Error("unexpected bits set")
	}
	if s.Count() != 4 {
		t.Errorf("Count = %d, want 4", s.Count())
	}
	s.Clear(63)
	if s.Contains(63) || s.Count() != 3 {
		t.Error("Clear failed")
	}
	s.Reset()
	if s.Any() {
		t.Error("Reset failed")
	}
}

func TestSetOps(t *testing.T) {
	a := New(100)
	b := New(100)
	a.Set(1)
	a.Set(50)
	a.Set(99)
	b.Set(50)
	b.Set(99)
	b.Set(2)
	c := a.Clone()
	c.IntersectWith(b)
	if c.Count() != 2 || !c.Contains(50) || !c.Contains(99) {
		t.Errorf("IntersectWith wrong: count=%d", c.Count())
	}
	e := New(100)
	e.CopyFrom(a)
	if e.Count() != a.Count() || !e.Contains(1) {
		t.Error("CopyFrom failed")
	}
	e.Set(3)
	if a.Contains(3) {
		t.Error("CopyFrom aliases storage")
	}
}

func TestForEach(t *testing.T) {
	s := New(200)
	want := []uint32{3, 64, 65, 190}
	for _, i := range want {
		s.Set(i)
	}
	var got []uint32
	s.ForEach(func(i uint32) bool {
		got = append(got, i)
		return true
	})
	if len(got) != len(want) {
		t.Fatalf("ForEach visited %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ForEach visited %v, want %v", got, want)
		}
	}
	// Early stop.
	n := 0
	s.ForEach(func(i uint32) bool { n++; return false })
	if n != 1 {
		t.Errorf("ForEach early stop visited %d", n)
	}
}

func TestMemoryBytes(t *testing.T) {
	if got := New(64).MemoryBytes(); got != 8 {
		t.Errorf("MemoryBytes(64) = %d, want 8", got)
	}
	if got := New(65).MemoryBytes(); got != 16 {
		t.Errorf("MemoryBytes(65) = %d, want 16", got)
	}
}

func TestSetMatchesMapModel(t *testing.T) {
	// Property: a Set behaves like a map[uint32]bool under random ops.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(300)
		s := New(n)
		model := map[uint32]bool{}
		for op := 0; op < 200; op++ {
			i := uint32(rng.Intn(n))
			switch rng.Intn(3) {
			case 0:
				s.Set(i)
				model[i] = true
			case 1:
				s.Clear(i)
				delete(model, i)
			case 2:
				if s.Contains(i) != model[i] {
					return false
				}
			}
		}
		return s.Count() == len(model)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestMask64(t *testing.T) {
	m := Mask64(0)
	if !m.Empty() {
		t.Error("zero mask should be empty")
	}
	m = m.With(0).With(5).With(63)
	if m.Count() != 3 || !m.Has(5) || m.Has(4) {
		t.Errorf("mask ops wrong: %b", m)
	}
	u := m.Union(Mask64(0).With(4))
	if u.Count() != 4 {
		t.Errorf("Union count = %d", u.Count())
	}
	if Mask64All(3) != 0b111 {
		t.Errorf("Mask64All(3) = %b", Mask64All(3))
	}
	if Mask64All(64) != ^Mask64(0) {
		t.Error("Mask64All(64) should be all ones")
	}
	if Mask64All(0) != 0 {
		t.Error("Mask64All(0) should be empty")
	}
}
