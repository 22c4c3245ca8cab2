package filter

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"subgraphmatching/internal/graph"
	"subgraphmatching/internal/testutil"
)

// expected final candidate sets on the paper's Figure 1 running example
// for the strong structural filters.
var paperRefined = [][]uint32{{0}, {2, 4}, {3, 5}, {10, 12}}

// mustRun is RunOpts without the tally, failing the test on an error.
func mustRun(t testing.TB, m Method, q, g *graph.Graph, o Options) [][]uint32 {
	t.Helper()
	cand, _, err := RunOpts(m, q, g, o)
	if err != nil {
		t.Fatalf("RunOpts(%v, %+v): %v", m, o, err)
	}
	return cand
}

func TestLDFOnPaperExample(t *testing.T) {
	q, g := testutil.PaperQuery(), testutil.PaperData()
	got := RunLDF(q, g)
	// v8 (label D) has degree 1 < d(u3)=2, so LDF already excludes it.
	want := [][]uint32{{0}, {2, 4, 6}, {1, 3, 5}, {10, 12}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("LDF = %v, want %v", got, want)
	}
}

func TestNLFOnPaperExample(t *testing.T) {
	q, g := testutil.PaperQuery(), testutil.PaperData()
	got := mustRun(t, NLF, q, g, Options{})
	// NLF removes v8 from C(u3) (no B neighbor) and v7 never qualifies.
	want := [][]uint32{{0}, {2, 4, 6}, {1, 3, 5}, {10, 12}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("NLF = %v, want %v", got, want)
	}
}

func TestGraphQLOnPaperExample(t *testing.T) {
	q, g := testutil.PaperQuery(), testutil.PaperData()
	got := mustRun(t, GQL, q, g, Options{})
	// Example 3.1: v1 is removed from C(u2) by the semi-perfect matching
	// test; v6 falls for the same reason (no candidate neighbor for u2).
	if !reflect.DeepEqual(got, paperRefined) {
		t.Errorf("GQL = %v, want %v", got, paperRefined)
	}
}

func TestCFLOnPaperExample(t *testing.T) {
	q, g := testutil.PaperQuery(), testutil.PaperData()
	if root := Root(CFL, q, g, 1); root != 0 {
		t.Fatalf("Root(CFL) = u%d, want u0 (as in Example 3.2)", root)
	}
	got := mustRun(t, CFL, q, g, Options{})
	// Example 3.2: generation removes v6 via non-tree edge e(u1,u2);
	// bottom-up refinement removes v1 (no neighbor in C(u3)).
	if !reflect.DeepEqual(got, paperRefined) {
		t.Errorf("CFL = %v, want %v", got, paperRefined)
	}
}

func TestCECIOnPaperExample(t *testing.T) {
	q, g := testutil.PaperQuery(), testutil.PaperData()
	if root := Root(CECI, q, g, 1); root != 0 {
		t.Fatalf("Root(CECI) = u%d, want u0 (as in Example 3.3)", root)
	}
	got := mustRun(t, CECI, q, g, Options{})
	if !reflect.DeepEqual(got, paperRefined) {
		t.Errorf("CECI = %v, want %v", got, paperRefined)
	}
}

func TestDPIsoOnPaperExample(t *testing.T) {
	q, g := testutil.PaperQuery(), testutil.PaperData()
	if root := Root(DPIso, q, g, 1); root != 0 {
		t.Fatalf("Root(DPIso) = u%d, want u0 (as in Example 3.4)", root)
	}
	got := mustRun(t, DPIso, q, g, Options{})
	if !reflect.DeepEqual(got, paperRefined) {
		t.Errorf("DPiso = %v, want %v", got, paperRefined)
	}
}

func TestSteadyOnPaperExample(t *testing.T) {
	q, g := testutil.PaperQuery(), testutil.PaperData()
	got := mustRun(t, Steady, q, g, Options{})
	if !reflect.DeepEqual(got, paperRefined) {
		t.Errorf("STEADY = %v, want %v", got, paperRefined)
	}
}

func TestRunDispatch(t *testing.T) {
	q, g := testutil.PaperQuery(), testutil.PaperData()
	for _, m := range Methods() {
		cand, err := Run(m, q, g)
		if err != nil {
			t.Fatalf("Run(%v): %v", m, err)
		}
		if len(cand) != q.NumVertices() {
			t.Fatalf("Run(%v) returned %d sets", m, len(cand))
		}
	}
}

func TestRunRejectsBadQueries(t *testing.T) {
	g := testutil.PaperData()
	empty := graph.MustFromEdges(nil, nil)
	if _, err := Run(LDF, empty, g); err == nil {
		t.Error("expected error for empty query")
	}
	disconnected := graph.MustFromEdges([]graph.Label{0, 0, 0}, [][2]graph.Vertex{{0, 1}})
	if _, err := Run(LDF, disconnected, g); err == nil {
		t.Error("expected error for disconnected query")
	}
}

func TestMethodStringAndParse(t *testing.T) {
	for _, m := range Methods() {
		got, err := ParseMethod(m.String())
		if err != nil || got != m {
			t.Errorf("ParseMethod(%q) = %v, %v", m.String(), got, err)
		}
	}
	if _, err := ParseMethod("nope"); err == nil {
		t.Error("ParseMethod should reject unknown names")
	}
	if s := Method(99).String(); s != "Method(99)" {
		t.Errorf("unknown method String = %q", s)
	}
}

func TestMeanCandidatesAndAnyEmpty(t *testing.T) {
	cand := [][]uint32{{1, 2}, {3}, {}}
	if got := MeanCandidates(cand); got != 1.0 {
		t.Errorf("MeanCandidates = %v, want 1.0", got)
	}
	if !AnyEmpty(cand) {
		t.Error("AnyEmpty should be true")
	}
	if AnyEmpty([][]uint32{{1}}) {
		t.Error("AnyEmpty should be false")
	}
	if MeanCandidates(nil) != 0 {
		t.Error("MeanCandidates(nil) should be 0")
	}
}

// subsetOf reports whether a ⊆ b for sorted slices.
func subsetOf(a, b []uint32) bool {
	j := 0
	for _, x := range a {
		for j < len(b) && b[j] < x {
			j++
		}
		if j == len(b) || b[j] != x {
			return false
		}
	}
	return true
}

// TestCompletenessProperty is the core safety property: every filtering
// method must keep every data vertex that participates in any match
// (Definition 2.2), and must never produce more candidates than LDF.
func TestCompletenessProperty(t *testing.T) {
	methods := Methods()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := testutil.RandomGraph(rng, 12+rng.Intn(20), 30+rng.Intn(40), 2+rng.Intn(3))
		q := testutil.RandomConnectedQuery(rng, g, 3+rng.Intn(4))
		if q == nil {
			return true
		}
		matches := testutil.BruteForceMatches(q, g)
		ldf := RunLDF(q, g)
		for _, m := range methods {
			cand, err := Run(m, q, g)
			if err != nil {
				t.Logf("Run(%v): %v", m, err)
				return false
			}
			for u := 0; u < q.NumVertices(); u++ {
				if !subsetOf(cand[u], ldf[u]) {
					t.Logf("%v: C(u%d)=%v not a subset of LDF=%v", m, u, cand[u], ldf[u])
					return false
				}
			}
			for _, match := range matches {
				for u, v := range match {
					found := false
					for _, c := range cand[u] {
						if c == v {
							found = true
							break
						}
					}
					if !found {
						t.Logf("%v: match vertex v%d missing from C(u%d)=%v", m, v, u, cand[u])
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestSteadyIsStrongest: the steady state is a subset of every
// NLF-initialized structural filter's result (CFL, CECI, DP-iso all stop
// refining before the fix point).
func TestSteadyIsTightestStructuralFilter(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := testutil.RandomGraph(rng, 15+rng.Intn(15), 40+rng.Intn(30), 3)
		q := testutil.RandomConnectedQuery(rng, g, 4)
		if q == nil {
			return true
		}
		steady := mustRun(t, Steady, q, g, Options{})
		for _, m := range []Method{NLF, CFL, CECI, DPIso} {
			cand, _ := Run(m, q, g)
			for u := range steady {
				if !subsetOf(steady[u], cand[u]) {
					t.Logf("steady C(u%d)=%v not subset of %v's %v", u, steady[u], m, cand[u])
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestCandidateSetsSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := testutil.RandomGraph(rng, 30, 80, 3)
	q := testutil.RandomConnectedQuery(rng, g, 5)
	if q == nil {
		t.Skip("no query extracted")
	}
	for _, m := range Methods() {
		cand, err := Run(m, q, g)
		if err != nil {
			t.Fatalf("Run(%v): %v", m, err)
		}
		for u, c := range cand {
			for i := 1; i < len(c); i++ {
				if c[i-1] >= c[i] {
					t.Fatalf("%v: C(u%d) not strictly sorted: %v", m, u, c)
				}
			}
		}
	}
}
