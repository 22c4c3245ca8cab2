package filter

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"reflect"
	"slices"
	"sort"
	"testing"

	"subgraphmatching/internal/graph"
	"subgraphmatching/internal/querygen"
	"subgraphmatching/internal/rmat"
	"subgraphmatching/internal/testutil"
)

// The differential harness for the preprocessing pipeline: on a grid of
// R-MAT/querygen fixtures it pins down that a worker count never changes
// a result, and that the results are the ones the sequential runners
// produced before the two paths were made one.
//
//   - For every filter, every parameter variant and every worker count,
//     the candidate sets hash to the digest recorded from the parent
//     commit's sequential code (parentDigests).
//   - GQL is held to that like every other method: its refinement is
//     Gauss–Seidel at query-vertex granularity at every worker count.

var equivalenceWorkers = []int{1, 2, 4, 8}

// equivFixture is one (data graph, queries) grid cell.
type equivFixture struct {
	name    string
	g       *graph.Graph
	queries []*graph.Graph
}

func equivalenceGrid(t testing.TB) []equivFixture {
	t.Helper()
	var out []equivFixture
	cells := []struct {
		name string
		rc   rmat.Config
		qc   querygen.Config
	}{
		{
			name: "skew85-dense6",
			rc:   rmat.Config{NumVertices: 1200, NumEdges: 7200, NumLabels: 5, Seed: 31, LabelSkew: 0.85},
			qc:   querygen.Config{NumVertices: 6, Count: 3, Density: querygen.Dense, Seed: 11},
		},
		{
			name: "uniform-sparse8",
			rc:   rmat.Config{NumVertices: 900, NumEdges: 3600, NumLabels: 8, Seed: 7},
			qc:   querygen.Config{NumVertices: 8, Count: 3, Density: querygen.Sparse, Seed: 5},
		},
		{
			name: "fewlabels-any4",
			rc:   rmat.Config{NumVertices: 600, NumEdges: 3000, NumLabels: 3, Seed: 19, LabelSkew: 0.6},
			qc:   querygen.Config{NumVertices: 4, Count: 4, Density: querygen.Any, Seed: 23},
		},
	}
	for _, c := range cells {
		g, err := rmat.Generate(c.rc)
		if err != nil {
			t.Fatalf("%s: rmat: %v", c.name, err)
		}
		qs, err := querygen.Generate(g, c.qc)
		if err != nil {
			t.Fatalf("%s: querygen: %v", c.name, err)
		}
		out = append(out, equivFixture{name: c.name, g: g, queries: qs})
	}
	// The paper's running example keeps the grid anchored to hand-checked
	// candidate sets.
	out = append(out, equivFixture{
		name: "paper", g: testutil.PaperData(), queries: []*graph.Graph{testutil.PaperQuery()},
	})
	return out
}

// assertSortedDeduped fails if any candidate set is not strictly
// increasing (sorted and duplicate-free).
func assertSortedDeduped(t *testing.T, label string, cand [][]uint32) {
	t.Helper()
	for u, c := range cand {
		if !sort.SliceIsSorted(c, func(i, j int) bool { return c[i] < c[j] }) {
			t.Fatalf("%s: C(u%d) not sorted: %v", label, u, c)
		}
		for i := 1; i < len(c); i++ {
			if c[i] == c[i-1] {
				t.Fatalf("%s: C(u%d) has duplicate %d", label, u, c[i])
			}
		}
	}
}

// digestVariants are the (method, parameters) points the parent digests
// were recorded at: every method at its defaults, plus GQL rounds ∈
// {1,3} and radius 2, DP-iso passes ∈ {1,4}.
var digestVariants = []struct {
	name string
	m    Method
	o    Options
}{
	{"LDF", LDF, Options{}},
	{"NLF", NLF, Options{}},
	{"GQL", GQL, Options{}},
	{"GQL/rounds=1", GQL, Options{GQLRounds: 1}},
	{"GQL/rounds=3", GQL, Options{GQLRounds: 3}},
	{"GQL/radius=2", GQL, Options{GQLRadius: 2}},
	{"CFL", CFL, Options{}},
	{"CECI", CECI, Options{}},
	{"DPiso", DPIso, Options{}},
	{"DPiso/passes=1", DPIso, Options{DPIsoPasses: 1}},
	{"DPiso/passes=4", DPIso, Options{DPIsoPasses: 4}},
	{"STEADY", Steady, Options{}},
}

// parentDigests holds, per "fixture/variant", the FNV-64a digest of the
// candidate sets of the fixture's queries (per set: length, then the
// vertices, little-endian uint32s) as produced by the sequential
// runners of commit 8bbdf91 — RunLDF, RunNLF, RunGraphQLRadius, RunCFL,
// RunCECI, RunDPIso, RunSteady — the last commit that had them.
var parentDigests = map[string]uint64{
	"skew85-dense6/LDF":              0x888864be22d94fda,
	"skew85-dense6/NLF":              0x29424922b499fd73,
	"skew85-dense6/GQL":              0x794a7e476355feae,
	"skew85-dense6/GQL/rounds=1":     0xb800e8a74238b3ee,
	"skew85-dense6/GQL/rounds=3":     0x794a7e476355feae,
	"skew85-dense6/GQL/radius=2":     0x794a7e476355feae,
	"skew85-dense6/CFL":              0x3e9fad7ff7db691c,
	"skew85-dense6/CECI":             0x3e9fad7ff7db691c,
	"skew85-dense6/DPiso":            0x3e9fad7ff7db691c,
	"skew85-dense6/DPiso/passes=1":   0xa067227508ef90ae,
	"skew85-dense6/DPiso/passes=4":   0x3e9fad7ff7db691c,
	"skew85-dense6/STEADY":           0x3e9fad7ff7db691c,
	"uniform-sparse8/LDF":            0x517db779acc278d4,
	"uniform-sparse8/NLF":            0x4e2d4abb41623cd0,
	"uniform-sparse8/GQL":            0x235909d0eed19d02,
	"uniform-sparse8/GQL/rounds=1":   0xa34f9ba85c9c7d27,
	"uniform-sparse8/GQL/rounds=3":   0x73965d25b66762fa,
	"uniform-sparse8/GQL/radius=2":   0x235909d0eed19d02,
	"uniform-sparse8/CFL":            0x98ffc771b6189b3c,
	"uniform-sparse8/CECI":           0xa62ce9b791f0513e,
	"uniform-sparse8/DPiso":          0xef0438889d8611b2,
	"uniform-sparse8/DPiso/passes=1": 0x89e93d3a823eab79,
	"uniform-sparse8/DPiso/passes=4": 0x904af9c75b08506c,
	"uniform-sparse8/STEADY":         0x904af9c75b08506c,
	"fewlabels-any4/LDF":             0x095235bbc9061048,
	"fewlabels-any4/NLF":             0xa452339880b19154,
	"fewlabels-any4/GQL":             0x8070086e6f198376,
	"fewlabels-any4/GQL/rounds=1":    0x8070086e6f198376,
	"fewlabels-any4/GQL/rounds=3":    0x8070086e6f198376,
	"fewlabels-any4/GQL/radius=2":    0x8070086e6f198376,
	"fewlabels-any4/CFL":             0x8070086e6f198376,
	"fewlabels-any4/CECI":            0x8070086e6f198376,
	"fewlabels-any4/DPiso":           0x8070086e6f198376,
	"fewlabels-any4/DPiso/passes=1":  0x0e2cecb2c045f042,
	"fewlabels-any4/DPiso/passes=4":  0x8070086e6f198376,
	"fewlabels-any4/STEADY":          0x8070086e6f198376,
	"paper/LDF":                      0xacbb2553012c14b7,
	"paper/NLF":                      0xacbb2553012c14b7,
	"paper/GQL":                      0xd89e73860c602f50,
	"paper/GQL/rounds=1":             0xd89e73860c602f50,
	"paper/GQL/rounds=3":             0xd89e73860c602f50,
	"paper/GQL/radius=2":             0xd89e73860c602f50,
	"paper/CFL":                      0xd89e73860c602f50,
	"paper/CECI":                     0xd89e73860c602f50,
	"paper/DPiso":                    0xd89e73860c602f50,
	"paper/DPiso/passes=1":           0xd89e73860c602f50,
	"paper/DPiso/passes=4":           0xd89e73860c602f50,
	"paper/STEADY":                   0xd89e73860c602f50,
}

// digestCandidates folds candidate sets into h: per set its length,
// then its vertices, as little-endian uint32s.
func digestCandidates(h hash.Hash64, cand [][]uint32) {
	var b [4]byte
	for _, c := range cand {
		binary.LittleEndian.PutUint32(b[:], uint32(len(c)))
		h.Write(b[:])
		for _, v := range c {
			binary.LittleEndian.PutUint32(b[:], v)
			h.Write(b[:])
		}
	}
}

func TestParallelFiltersMatchOneWorkerExactly(t *testing.T) {
	for _, f := range equivalenceGrid(t) {
		for _, v := range digestVariants {
			name := f.name + "/" + v.name
			want, ok := parentDigests[name]
			if !ok {
				t.Fatalf("%s: no parent digest recorded", name)
			}
			for _, w := range equivalenceWorkers {
				o := v.o
				o.Workers = w
				h := fnv.New64a()
				for _, q := range f.queries {
					cand := mustRun(t, v.m, q, f.g, o)
					assertSortedDeduped(t, name, cand)
					digestCandidates(h, cand)
				}
				if got := h.Sum64(); got != want {
					t.Errorf("%s workers=%d: digest %#016x, parent's sequential run %#016x", name, w, got, want)
				}
			}
		}
	}
}

// TestSteadyParallelReachesSameFixPoint checks the strongest filter
// separately and without reference to a recorded run: at every worker
// count the STEADY sets are the one-worker sets, and they are a fix
// point of Filtering Rule 3.1 — every remaining candidate of u has a
// neighbor among the candidates of every neighbor of u.
func TestSteadyParallelReachesSameFixPoint(t *testing.T) {
	for _, f := range equivalenceGrid(t) {
		for qi, q := range f.queries {
			want := mustRun(t, Steady, q, f.g, Options{})
			for u, c := range want {
				for _, v := range c {
					for _, up := range q.Neighbors(graph.Vertex(u)) {
						if !slices.ContainsFunc(f.g.Neighbors(v), func(w uint32) bool { return containsVertex(want[up], w) }) {
							t.Fatalf("%s/q%d: v%d ∈ C(u%d) has no neighbor in C(u%d): not a fix point", f.name, qi, v, u, up)
						}
					}
				}
			}
			for _, w := range equivalenceWorkers[1:] {
				got := mustRun(t, Steady, q, f.g, Options{Workers: w})
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s/q%d workers=%d: steady fix points differ", f.name, qi, w)
				}
			}
		}
	}
}

// TestDPIsoParallelMatchesSequential covers the pass counts the parent
// digests do not (the digests pin passes 1, 3 and 4 to the sequential
// runner that asked DPIsoRoot for its root; the filter now derives the
// root from the LDF sets it has just built): every pass count and
// worker count returns the one-worker sets, and Root(DPIso, …) — what
// the ordering asks — is the same vertex at every worker count.
func TestDPIsoParallelMatchesSequential(t *testing.T) {
	for _, f := range equivalenceGrid(t) {
		for qi, q := range f.queries {
			root := Root(DPIso, q, f.g, 1)
			for _, passes := range []int{1, 3, 5} {
				want := mustRun(t, DPIso, q, f.g, Options{DPIsoPasses: passes})
				for _, w := range equivalenceWorkers[1:] {
					if got := Root(DPIso, q, f.g, w); got != root {
						t.Fatalf("%s/q%d workers=%d: Root(DPIso) = u%d, one worker says u%d", f.name, qi, w, got, root)
					}
					got := mustRun(t, DPIso, q, f.g, Options{DPIsoPasses: passes, Workers: w})
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s/q%d passes=%d workers=%d: differs", f.name, qi, passes, w)
					}
				}
			}
		}
	}
}

// TestTreeFiltersEmptyMidLevel pins the degenerate wave shape: a
// generation step mid-tree prunes C(u) to empty, so every deeper wave
// fans out over an empty frontier and the backward cascade empties the
// ancestors. Query: path u0(A)-u1(B)-u2(C)-u3(A); data: path
// v0(A)-v1(B)-v2(C), where v2's degree is too small for u2, so C(u2)
// dies during generation with a whole level still below it. Every
// worker count must agree with the reference filter bit for bit and
// must not panic on the empty waves.
func TestTreeFiltersEmptyMidLevel(t *testing.T) {
	mk := func(labels []graph.Label, edges [][2]graph.Vertex) *graph.Graph {
		b := graph.NewBuilder(len(labels), len(edges))
		for _, l := range labels {
			b.AddVertex(l)
		}
		for _, e := range edges {
			b.AddEdge(e[0], e[1])
		}
		g, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	q := mk([]graph.Label{0, 1, 2, 0}, [][2]graph.Vertex{{0, 1}, {1, 2}, {2, 3}})
	g := mk([]graph.Label{0, 1, 2}, [][2]graph.Vertex{{0, 1}, {1, 2}})
	for _, m := range []Method{CFL, CECI} {
		seq := newRefFilter(q, g).cfl(Root(CFL, q, g, 1))
		if m == CECI {
			seq = newRefFilter(q, g).ceci(Root(CECI, q, g, 1))
		}
		empty := 0
		for u := range seq {
			if len(seq[u]) == 0 {
				empty++
			}
		}
		if empty == 0 {
			t.Fatalf("%v: fixture did not produce an empty candidate set: %v", m, seq)
		}
		for _, w := range equivalenceWorkers {
			got := mustRun(t, m, q, g, Options{Workers: w})
			if !reflect.DeepEqual(emptyNotNil(got), emptyNotNil(seq)) {
				t.Fatalf("%v workers=%d: differs from the reference on empty-level fixture:\n got %v\nwant %v",
					m, w, got, seq)
			}
		}
	}
}

// TestRunParallelStatsTalliesWork sanity-checks the makespan
// instrumentation: every method reports one tally per worker (one entry
// on a one-worker run) and a non-zero total.
func TestRunParallelStatsTalliesWork(t *testing.T) {
	f := equivalenceGrid(t)[0]
	q := f.queries[0]
	for _, m := range Methods() {
		for _, w := range []int{0, 1, 4} {
			_, work, err := RunOpts(m, q, f.g, Options{Workers: w})
			if err != nil {
				t.Fatalf("%v: %v", m, err)
			}
			if len(work) != max(w, 1) {
				t.Fatalf("%v workers=%d: tally %v, want one entry per worker", m, w, work)
			}
			var total uint64
			for _, n := range work {
				total += n
			}
			if total == 0 {
				t.Errorf("%v workers=%d: zero work tallied", m, w)
			}
		}
	}
}
