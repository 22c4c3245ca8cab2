package candspace

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"slices"
	"testing"

	"subgraphmatching/internal/filter"
	"subgraphmatching/internal/graph"
	"subgraphmatching/internal/intersect"
	"subgraphmatching/internal/querygen"
	"subgraphmatching/internal/rmat"
	"subgraphmatching/internal/testutil"
)

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
// unmaterialized pair, else 1, offsets, targets) into h. A target is
// folded as the data vertex C(u′)[t] its position t stands for, so the
// digest is the one the parent's CSR of data vertices gave.
func digestCSR(h hash.Hash64, s *Space) {
	for u, row := range s.edges {
		for i, csr := range row {
			if csr == nil {
				put32(h, 0)
				continue
			}
			put32(h, 1)
			for _, o := range csr.offsets {
				put32(h, uint32(o))
			}
			c := s.candidates[s.q.Neighbors(graph.Vertex(u))[i]]
			for _, t := range csr.targets {
				put32(h, c[t])
			}
		}
	}
}

// digestBlocks folds every flat arena, set by set (block count, keys,
// words), into h. Each view must decode to its CSR list of positions;
// what is folded is the block encoding of the data vertices that list
// stands for — the sets the parent's arenas of data vertices encoded.
func digestBlocks(t *testing.T, h hash.Hash64, s *Space) {
	t.Helper()
	for u, row := range s.flat {
		for i, fb := range row {
			if fb == nil {
				put32(h, 0)
				continue
			}
			put32(h, 1)
			uu, up := graph.Vertex(u), s.q.Neighbors(graph.Vertex(u))[i]
			p := s.Pair(uu, up)
			for ci := 0; ci < fb.NumSets(); ci++ {
				adj := p.Adjacency(ci)
				if got := fb.View(ci).Elements(nil); !slices.Equal(got, adj) {
					t.Fatalf("(%d->%d)[%d]: view decodes %v, CSR holds %v", uu, up, ci, got, adj)
				}
				ids := dataIDs(s.candidates[up], adj)
				enc := intersect.NewFlatBlocks([]int32{0, int32(intersect.CountBlocks(ids))})
				enc.EncodeSet(0, ids)
				v := enc.View(0)
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
// its block arenas. Both fold data vertices (digestCSR, digestBlocks),
// so they hold now that 𝒜 stores positions.
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

// assertParentDigests builds the structure of every grid query — with
// tree parents when tree is set — and holds the CSR and block-arena
// digests to the parent's.
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
			csr, blocks := fnv.New64a(), fnv.New64a()
			for _, q := range f.queries {
				cand, err := filter.Run(m, q, f.g)
				if err != nil {
					t.Fatal(err)
				}
				var parent []graph.Vertex
				if tree {
					parent = graph.NewBFSTree(q, filter.Root(filter.CFL, q, f.g)).Parent
				}
				s := Build(q, f.g, cand, parent, nil)
				digestCSR(csr, s)
				s.MaterializeBlocks()
				digestBlocks(t, blocks, s)
			}
			if got := csr.Sum64(); got != wantCSR {
				t.Errorf("%s: CSR digest %#016x, parent's sequential build %#016x", name, got, wantCSR)
			}
			if got := blocks.Sum64(); got != wantBlocks {
				t.Errorf("%s: block digest %#016x, parent's sequential build %#016x", name, got, wantBlocks)
			}
		}
	}
}

func TestBuildFullMatchesParentDigests(t *testing.T) { assertParentDigests(t, false) }

func TestBuildTreeMatchesParentDigests(t *testing.T) { assertParentDigests(t, true) }

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
// survives empty and nil candidate sets: full and tree builds, the
// aggregate metrics, block materialization, and Adjacency lookups fed
// an index of -1, which no empty set has.
func TestDegenerateCandidateSets(t *testing.T) {
	q, g := testutil.PaperQuery(), testutil.PaperData()
	cand := degenerateCandidates(q)
	tree := graph.NewBFSTree(q, 0)
	spaces := map[string]*Space{
		"full": BuildFull(q, g, cand),
		"tree": Build(q, g, cand, tree.Parent, nil),
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
				idx := -1
				if adj := s.Adjacency(uu, up, idx); adj != nil {
					t.Errorf("%s: Adjacency with index -1 = %v, want nil", name, adj)
				}
				p := s.Pair(uu, up)
				if adj := p.Adjacency(idx); adj != nil {
					t.Errorf("%s: Pair.Adjacency with index -1 = %v, want nil", name, adj)
				}
				if bv := p.View(idx); bv.Valid() {
					t.Errorf("%s: Pair.View with index -1 is valid", name)
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
