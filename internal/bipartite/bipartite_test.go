package bipartite

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPerfectMatchingExists(t *testing.T) {
	m := NewMatcher(3)
	m.Reset(3)
	// 0-{10,11}, 1-{10}, 2-{12}: matching 0->11, 1->10, 2->12.
	m.AddEdge(0, 10)
	m.AddEdge(0, 11)
	m.AddEdge(1, 10)
	m.AddEdge(2, 12)
	if !m.HasSemiPerfectMatching(3) {
		t.Error("expected semi-perfect matching")
	}
}

func TestPerfectMatchingMissing(t *testing.T) {
	m := NewMatcher(3)
	m.Reset(3)
	// Both 0 and 1 can only use right vertex 10.
	m.AddEdge(0, 10)
	m.AddEdge(1, 10)
	m.AddEdge(2, 12)
	if m.HasSemiPerfectMatching(3) {
		t.Error("expected no semi-perfect matching")
	}
	if got := m.MaximumMatchingSize(3); got != 2 {
		t.Errorf("MaximumMatchingSize = %d, want 2", got)
	}
}

func TestIsolatedLeftVertexFails(t *testing.T) {
	m := NewMatcher(2)
	m.Reset(2)
	m.AddEdge(0, 1)
	if m.HasSemiPerfectMatching(2) {
		t.Error("left vertex with no edges cannot be matched")
	}
}

func TestMatcherReuse(t *testing.T) {
	m := NewMatcher(2)
	m.Reset(2)
	m.AddEdge(0, 5)
	m.AddEdge(1, 5)
	if m.HasSemiPerfectMatching(2) {
		t.Fatal("first round should fail")
	}
	m.Reset(2)
	m.AddEdge(0, 5)
	m.AddEdge(1, 6)
	if !m.HasSemiPerfectMatching(2) {
		t.Fatal("second round should succeed after Reset")
	}
	// Reset growing beyond initial capacity.
	m.Reset(10)
	for i := 0; i < 10; i++ {
		m.AddEdge(i, int32(i))
	}
	if !m.HasSemiPerfectMatching(10) {
		t.Fatal("identity matching should succeed")
	}
}

// bruteMaxMatching computes maximum matching size by trying all subsets
// (inputs are tiny).
func bruteMaxMatching(nLeft int, edges [][2]int32) int {
	best := 0
	var rec func(l int, usedR map[int32]bool, size int)
	rec = func(l int, usedR map[int32]bool, size int) {
		if size > best {
			best = size
		}
		if l == nLeft {
			return
		}
		rec(l+1, usedR, size) // leave l unmatched
		for _, e := range edges {
			if int(e[0]) == l && !usedR[e[1]] {
				usedR[e[1]] = true
				rec(l+1, usedR, size+1)
				delete(usedR, e[1])
			}
		}
	}
	rec(0, map[int32]bool{}, 0)
	return best
}

func TestMaximumMatchingMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nLeft := 1 + rng.Intn(5)
		nRight := 1 + rng.Intn(5)
		var edges [][2]int32
		m := NewMatcher(nLeft)
		m.Reset(nLeft)
		for l := 0; l < nLeft; l++ {
			for r := 0; r < nRight; r++ {
				if rng.Intn(3) == 0 {
					edges = append(edges, [2]int32{int32(l), int32(r)})
					m.AddEdge(l, int32(r))
				}
			}
		}
		want := bruteMaxMatching(nLeft, edges)
		got := m.MaximumMatchingSize(nLeft)
		if got != want {
			t.Logf("matching size %d, brute force %d, edges %v", got, want, edges)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// randomBipartite draws edges over nLeft × the right ids in rights.
func randomBipartite(rng *rand.Rand, nLeft int, rights []int32) [][2]int32 {
	var edges [][2]int32
	for l := 0; l < nLeft; l++ {
		for _, r := range rights {
			if rng.Intn(3) == 0 {
				edges = append(edges, [2]int32{int32(l), r})
			}
		}
	}
	return edges
}

// checkAgainstBrute loads edges into m and holds both queries to the
// exhaustive answer.
func checkAgainstBrute(t *testing.T, m *Matcher, nLeft int, edges [][2]int32) {
	t.Helper()
	m.Reset(nLeft)
	for _, e := range edges {
		m.AddEdge(int(e[0]), e[1])
	}
	want := bruteMaxMatching(nLeft, edges)
	if got := m.MaximumMatchingSize(nLeft); got != want {
		t.Fatalf("MaximumMatchingSize = %d, brute force %d, edges %v", got, want, edges)
	}
	if got := m.HasSemiPerfectMatching(nLeft); got != (want == nLeft) {
		t.Fatalf("HasSemiPerfectMatching = %v with maximum matching %d of %d, edges %v", got, want, nLeft, edges)
	}
}

// One matcher carried through many Reset cycles never sees state of an
// earlier graph, also as its right-side arrays grow under it.
func TestMatcherManyResetCycles(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := NewMatcher(1)
	for cycle := 0; cycle < 12000; cycle++ {
		nLeft := 1 + rng.Intn(5)
		// The id range creeps upwards, so ids seen in early cycles come
		// back next to ones the matcher has never stored.
		base := int32(cycle / 100)
		var rights []int32
		for _, r := range rng.Perm(8)[:1+rng.Intn(5)] {
			rights = append(rights, base+int32(r))
		}
		checkAgainstBrute(t, m, nLeft, randomBipartite(rng, nLeft, rights))
	}
}

// Both epoch counters pass through zero in the middle of use: stamps
// left from before the wrap must not read as current after it. Every
// right vertex carries stale stamps equal to the first epochs after the
// wrap, and the counters are parked 0..3 steps below it, so the wrap
// lands before a matching, between two searches of one matching, and
// inside HasSemiPerfectMatching.
func TestMatcherEpochWrap(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := NewMatcher(4)
	rights := []int32{0, 1, 2, 3, 4}
	for trial := 0; trial < 400; trial++ {
		edges := randomBipartite(rng, 4, rights)
		checkAgainstBrute(t, m, 4, edges) // sizes m.right
		m.matchEpoch = ^uint32(0) - uint32(trial%2)
		m.visitEpoch = ^uint32(0) - uint32(trial%4)
		for i := range m.right {
			m.right[i] = rightState{owner: int32(i % 4), ownedAt: 1, seenAt: 1 + uint32(i%3)}
		}
		checkAgainstBrute(t, m, 4, edges)
		// The 4 searches of MaximumMatchingSize always carry visitEpoch
		// over; matchEpoch parked one below needs a second matching,
		// which HasSemiPerfectMatching skips on an edgeless left vertex.
		if m.visitEpoch > 16 || (trial%2 == 0 && m.matchEpoch > 8) {
			t.Fatalf("epochs did not wrap: match %d, visit %d", m.matchEpoch, m.visitEpoch)
		}
	}
}
