package candspace

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math/rand"
	"reflect"
	"testing"

	"subgraphmatching/internal/filter"
	"subgraphmatching/internal/graph"
	"subgraphmatching/internal/par"
	"subgraphmatching/internal/querygen"
	"subgraphmatching/internal/rmat"
	"subgraphmatching/internal/testutil"
)

// spacesEqual compares two Spaces observably: candidate sets, pair
// materialization, and every adjacency list.
func spacesEqual(t *testing.T, a, b *Space) {
	t.Helper()
	q := a.Query()
	if !reflect.DeepEqual(a.AllCandidates(), b.AllCandidates()) {
		t.Fatalf("candidate sets differ")
	}
	for u := 0; u < q.NumVertices(); u++ {
		uu := graph.Vertex(u)
		for _, up := range q.Neighbors(uu) {
			if a.HasPair(uu, up) != b.HasPair(uu, up) {
				t.Fatalf("pair (%d,%d) materialization differs", uu, up)
			}
			for ci := range a.Candidates(uu) {
				ga, gb := a.Adjacency(uu, up, ci), b.Adjacency(uu, up, ci)
				if !reflect.DeepEqual(ga, gb) {
					t.Fatalf("adjacency (%d->%d)[%d]: %v vs %v", uu, up, ci, ga, gb)
				}
			}
		}
	}
	if a.TotalCandidates() != b.TotalCandidates() || a.MemoryBytes() != b.MemoryBytes() {
		t.Fatalf("aggregate metrics differ: %d/%d bytes vs %d/%d",
			a.TotalCandidates(), a.MemoryBytes(), b.TotalCandidates(), b.MemoryBytes())
	}
}

// digestFixture is one (data graph, queries) cell of the digest grid —
// the same four cells as the filter package's equivalenceGrid.
type digestFixture struct {
	name    string
	g       *graph.Graph
	queries []*graph.Graph
}

func digestGrid(t testing.TB) []digestFixture {
	t.Helper()
	var out []digestFixture
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
		out = append(out, digestFixture{name: c.name, g: g, queries: qs})
	}
	out = append(out, digestFixture{
		name: "paper", g: testutil.PaperData(), queries: []*graph.Graph{testutil.PaperQuery()},
	})
	return out
}

func put32(h hash.Hash64, v uint32) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	h.Write(b[:])
}

func put64(h hash.Hash64, v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	h.Write(b[:])
}

// digestCSR folds every directed pair's CSR (a 0 marker for an
// unmaterialized pair, else 1, offsets, targets) into h.
func digestCSR(h hash.Hash64, s *Space) {
	for _, row := range s.edges {
		for _, csr := range row {
			if csr == nil {
				put32(h, 0)
				continue
			}
			put32(h, 1)
			for _, o := range csr.offsets {
				put32(h, uint32(o))
			}
			for _, v := range csr.targets {
				put32(h, v)
			}
		}
	}
}

// digestBlocks folds every flat arena, set by set (block count, keys,
// words), into h.
func digestBlocks(h hash.Hash64, s *Space) {
	for _, row := range s.flat {
		for _, fb := range row {
			if fb == nil {
				put32(h, 0)
				continue
			}
			put32(h, 1)
			for ci := 0; ci < fb.NumSets(); ci++ {
				v := fb.View(ci)
				put32(h, uint32(len(v.Keys)))
				for _, k := range v.Keys {
					put32(h, k)
				}
				for _, w := range v.Words {
					put64(h, w)
				}
			}
		}
	}
}

// parentDigests holds, per "fixture/filter", the FNV-64a digests of the
// structures the sequential build and MaterializeBlocks of commit
// 8bbdf91 produced over the fixture's queries (candidate sets from that
// commit's sequential GQL and CFL filters, tree parents from the BFS
// tree at CFL's root): the full CSR, its block arenas, the tree CSR and
// its block arenas.
var parentDigests = map[string]struct{ full, fullBlocks, tree, treeBlocks uint64 }{
	"skew85-dense6/GQL":   {0xa35b543b74f8b492, 0xebbfff0ef4f4e6da, 0x5edae56d2c7b3fec, 0x5bd4e0639bf806b3},
	"skew85-dense6/CFL":   {0x3345f32653dba542, 0x310eb95d640cc46a, 0x23780c9f22876746, 0x9c604733818131d5},
	"uniform-sparse8/GQL": {0x6709fc6abee00ad3, 0x8dd62f53491d2ba1, 0xd4f02769cc58dfc4, 0x1830c1ca29b17ae8},
	"uniform-sparse8/CFL": {0xdd50c59502d1ff97, 0xec19d6872eee732f, 0x13e507ef801ee847, 0x3bfa20e6f65a8eba},
	"fewlabels-any4/GQL":  {0x5e7f80c71ad0e650, 0xda9eea9791fa3c37, 0x5e7f80c71ad0e650, 0xda9eea9791fa3c37},
	"fewlabels-any4/CFL":  {0x5e7f80c71ad0e650, 0xda9eea9791fa3c37, 0x5e7f80c71ad0e650, 0xda9eea9791fa3c37},
	"paper/GQL":           {0xa30ff124d73708fd, 0x1f32e215b3e24409, 0xf9ca5ff1ab4e9c9d, 0x4912a3eb81e82651},
	"paper/CFL":           {0xa30ff124d73708fd, 0x1f32e215b3e24409, 0xf9ca5ff1ab4e9c9d, 0x4912a3eb81e82651},
}

// assertParentDigests builds the structure of every grid query at 1, 2,
// 4 and 8 workers — with tree parents when tree is set — and holds the
// CSR and block-arena digests to the parent's.
func assertParentDigests(t *testing.T, tree bool) {
	for _, f := range digestGrid(t) {
		for _, m := range []filter.Method{filter.GQL, filter.CFL} {
			name := f.name + "/" + m.String()
			want, ok := parentDigests[name]
			if !ok {
				t.Fatalf("%s: no parent digest recorded", name)
			}
			wantCSR, wantBlocks := want.full, want.fullBlocks
			if tree {
				wantCSR, wantBlocks = want.tree, want.treeBlocks
			}
			for _, workers := range []int{1, 2, 4, 8} {
				csr, blocks := fnv.New64a(), fnv.New64a()
				for _, q := range f.queries {
					cand, _, err := filter.RunOpts(m, q, f.g, filter.Options{Workers: workers})
					if err != nil {
						t.Fatal(err)
					}
					var parent []graph.Vertex
					if tree {
						parent = graph.NewBFSTree(q, filter.Root(filter.CFL, q, f.g, workers)).Parent
					}
					s := buildAt(q, f.g, cand, parent, workers)
					digestCSR(csr, s)
					s.MaterializeBlocks(workers)
					digestBlocks(blocks, s)
				}
				if got := csr.Sum64(); got != wantCSR {
					t.Errorf("%s workers=%d: CSR digest %#016x, parent's sequential build %#016x", name, workers, got, wantCSR)
				}
				if got := blocks.Sum64(); got != wantBlocks {
					t.Errorf("%s workers=%d: block digest %#016x, parent's sequential build %#016x", name, workers, got, wantBlocks)
				}
			}
		}
	}
}

func TestBuildFullParallelMatchesSequential(t *testing.T) { assertParentDigests(t, false) }

func TestBuildTreeParallelMatchesSequential(t *testing.T) { assertParentDigests(t, true) }

// degenerateCandidates builds candidate sets where some C(u) are empty
// and some nil — the shape an over-pruning filter hands downstream.
func degenerateCandidates(q *graph.Graph) [][]uint32 {
	cand := make([][]uint32, q.NumVertices())
	for u := range cand {
		switch u % 3 {
		case 0:
			cand[u] = nil
		case 1:
			cand[u] = []uint32{}
		default:
			cand[u] = []uint32{uint32(u)}
		}
	}
	return cand
}

// TestDegenerateCandidateSets pins that every Space accessor and metric
// survives empty and nil candidate sets: full and tree builds (one and
// four workers), the aggregate metrics, block materialization, and the
// Adjacency lookups fed the -1 index CandidateIndex reports for a
// vertex missing from an empty set.
func TestDegenerateCandidateSets(t *testing.T) {
	q, g := testutil.PaperQuery(), testutil.PaperData()
	cand := degenerateCandidates(q)
	tree := graph.NewBFSTree(q, 0)
	spaces := map[string]*Space{
		"full":          BuildFull(q, g, cand),
		"full-parallel": buildAt(q, g, cand, nil, 4),
		"tree":          buildAt(q, g, cand, tree.Parent, 1),
		"tree-parallel": buildAt(q, g, cand, tree.Parent, 4),
	}
	for name, s := range spaces {
		// The 4-vertex paper query leaves exactly one singleton set
		// (u=2); u=0 and u=3 are nil, u=1 is empty.
		if got := s.TotalCandidates(); got != 1 {
			t.Errorf("%s: TotalCandidates = %d, want 1", name, got)
		}
		if got := s.MeanCandidates(); got != 0.25 {
			t.Errorf("%s: MeanCandidates = %v, want 0.25", name, got)
		}
		if s.MemoryBytes() <= 0 {
			t.Errorf("%s: MemoryBytes = %d, want > 0 (offset arrays remain)", name, s.MemoryBytes())
		}
		s.MaterializeBlocks()
		for u := 0; u < q.NumVertices(); u++ {
			uu := graph.Vertex(u)
			for _, up := range q.Neighbors(uu) {
				idx := s.CandidateIndex(uu, 99) // not a candidate anywhere
				if idx != -1 {
					t.Fatalf("%s: CandidateIndex returned %d for missing vertex", name, idx)
				}
				if adj := s.Adjacency(uu, up, idx); adj != nil {
					t.Errorf("%s: Adjacency with index -1 = %v, want nil", name, adj)
				}
				if bv := s.AdjacencyView(uu, up, idx); bv.Valid() {
					t.Errorf("%s: AdjacencyView with index -1 is valid", name)
				}
			}
		}
	}
}

// TestEstimateSurvivesEmptySets: the spanning-tree estimate over a
// degenerate space must be 0 (or finite), never a panic.
func TestEstimateSurvivesEmptySets(t *testing.T) {
	q, g := testutil.PaperQuery(), testutil.PaperData()
	s := BuildFull(q, g, degenerateCandidates(q))
	delta := []graph.Vertex{0, 1, 2, 3}
	if est := EstimateSpanningTreeEmbeddings(s, delta); est != 0 {
		t.Errorf("estimate over empty root set = %v, want 0", est)
	}
}

// TestParallelBuildStress is the race-detector gate for the
// candidate-space construction (`make race-stress` / `make ci`): 100
// builds at 8 workers on a small graph, each checked against the
// one-worker build.
func TestParallelBuildStress(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	g := testutil.RandomGraph(rng, 60, 240, 3)
	var q *graph.Graph
	for q == nil {
		q = testutil.RandomConnectedQuery(rng, g, 5)
	}
	cand, _ := filter.Run(filter.NLF, q, g)
	seq := BuildFull(q, g, cand)
	for i := 0; i < 100; i++ {
		spacesEqual(t, seq, buildAt(q, g, cand, nil, 8))
	}
}

func TestBuildFullParallelStatsTalliesWork(t *testing.T) {
	q, g := testutil.PaperQuery(), testutil.PaperData()
	cand, _ := filter.Run(filter.NLF, q, g)
	_, work := Build(q, g, cand, nil, 4)
	if len(work) != 4 {
		t.Fatalf("tally %v, want one entry per worker", work)
	}
	if par.MakespanBound(work) < 1 {
		t.Fatalf("makespan bound below 1: %v", work)
	}
	var total uint64
	for _, w := range work {
		total += w
	}
	if total == 0 {
		t.Errorf("zero work tallied: %v", work)
	}
}
