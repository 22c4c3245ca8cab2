package filter

import (
	"math/rand"
	"testing"
	"testing/quick"

	"subgraphmatching/internal/testutil"
)

func TestGraphQLRadiusOneMatchesDefault(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 10; trial++ {
		g := testutil.RandomGraph(rng, 25, 70, 3)
		q := testutil.RandomConnectedQuery(rng, g, 5)
		if q == nil {
			continue
		}
		a := mustRun(t, GQL, q, g, Options{})
		b := mustRun(t, GQL, q, g, Options{GQLRadius: 1})
		for u := range a {
			if len(a[u]) != len(b[u]) {
				t.Fatalf("radius-1 differs from default at u%d: %v vs %v", u, a[u], b[u])
			}
		}
	}
}

func TestGraphQLRadiusTwoCompleteAndTighter(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := testutil.RandomGraph(rng, 15+rng.Intn(20), 35+rng.Intn(40), 2+rng.Intn(3))
		q := testutil.RandomConnectedQuery(rng, g, 3+rng.Intn(4))
		if q == nil {
			return true
		}
		r1 := mustRun(t, GQL, q, g, Options{GQLRadius: 1})
		r2 := mustRun(t, GQL, q, g, Options{GQLRadius: 2})
		// r=2 must prune at least as much as r=1.
		for u := range r1 {
			if !subsetOf(r2[u], r1[u]) {
				t.Logf("r2 C(u%d)=%v not subset of r1 %v (seed %d)", u, r2[u], r1[u], seed)
				return false
			}
		}
		// And must stay complete.
		for _, match := range testutil.BruteForceMatches(q, g) {
			for u, v := range match {
				found := false
				for _, c := range r2[u] {
					if c == v {
						found = true
						break
					}
				}
				if !found {
					t.Logf("r2 dropped match vertex v%d from C(u%d) (seed %d)", v, u, seed)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestProfilerCountsPaperExample(t *testing.T) {
	g := testutil.PaperData()
	p := newProfiler(g, 1)
	// v7's profile: distance 0 is itself (C); distance <= 1 adds
	// neighbor v6 (B).
	prof := p.profile(g, 7)
	if len(prof) != 2 {
		t.Fatalf("profile(v7) has %d rings", len(prof))
	}
	if len(prof[0]) != 1 || prof[0][0].label != testutil.LabelC || prof[0][0].count != 1 {
		t.Errorf("distance-0 ring = %v", prof[0])
	}
	if len(prof[1]) != 2 || prof[1][0].label != testutil.LabelB || prof[1][1].label != testutil.LabelC {
		t.Errorf("distance-1 ring = %v", prof[1])
	}
	// Radius 2 from v7 reaches v0 (A) and v10 (D) through v6: four
	// distinct labels cumulatively.
	p2 := newProfiler(g, 2)
	prof2 := p2.profile(g, 7)
	if len(prof2[2]) != 4 {
		t.Fatalf("radius-2 cumulative ring = %v", prof2[2])
	}
}

func TestProfilerCovers(t *testing.T) {
	g := testutil.PaperData()
	p := newProfiler(g, 1)
	want := p.profile(g, 7) // B:1 C:1
	if !p.covers(g, 1, want) {
		// v1's neighborhood: itself C, v0 A, v2 B, v8 D — covers B:1 C:1.
		t.Error("v1 should cover v7's profile")
	}
	if p.covers(g, 9, want) {
		// v9 (E) has no B or C within one hop... it neighbors v0 (A) and
		// v11 (E) only.
		t.Error("v9 should not cover v7's profile")
	}
}
