package candspace

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"subgraphmatching/internal/filter"
	"subgraphmatching/internal/graph"
	"subgraphmatching/internal/testutil"
)

func paperSpace(t *testing.T) (*graph.Graph, *graph.Graph, *Space) {
	t.Helper()
	q, g := testutil.PaperQuery(), testutil.PaperData()
	cand, err := filter.Run(filter.CFL, q, g)
	if err != nil {
		t.Fatal(err)
	}
	return q, g, BuildFull(q, g, cand)
}

func TestFullSpacePaperExample(t *testing.T) {
	_, _, s := paperSpace(t)
	// Example 3.2: A[u1->u3](v4) = {v10, v12}. C(u1) = {2, 4}, so v4 has
	// candidate index 1; 𝒜 holds the targets as positions in C(u3).
	idx := slices.Index(s.Candidates(1), 4)
	if idx != 1 {
		t.Fatalf("v4 is at %d in C(u1) = %v, want 1", idx, s.Candidates(1))
	}
	got := dataIDs(s.Candidates(3), s.Adjacency(1, 3, idx))
	if want := []uint32{10, 12}; !reflect.DeepEqual(got, want) {
		t.Errorf("A[u1->u3](v4) = %v, want %v", got, want)
	}
	// Reverse direction: A[u3->u1](v12) = {v2, v4}.
	idx12 := slices.Index(s.Candidates(3), 12)
	got = dataIDs(s.Candidates(1), s.Adjacency(3, 1, idx12))
	if want := []uint32{2, 4}; !reflect.DeepEqual(got, want) {
		t.Errorf("A[u3->u1](v12) = %v, want %v", got, want)
	}
}

func TestAdjacencyConsistency(t *testing.T) {
	// Property: on random inputs, A[u->u'](v), translated through C(u'),
	// must equal N(v) ∩ C(u') computed naively, for every materialized
	// pair.
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		g := testutil.RandomGraph(rng, 20+rng.Intn(20), 60, 3)
		q := testutil.RandomConnectedQuery(rng, g, 4)
		if q == nil {
			continue
		}
		cand, _ := filter.Run(filter.NLF, q, g)
		s := BuildFull(q, g, cand)
		for u := 0; u < q.NumVertices(); u++ {
			uu := graph.Vertex(u)
			for _, up := range q.Neighbors(uu) {
				for ci, v := range cand[u] {
					var want []uint32
					for _, w := range g.Neighbors(v) {
						for _, c := range cand[up] {
							if c == w {
								want = append(want, w)
							}
						}
					}
					got := dataIDs(cand[up], s.Adjacency(uu, up, ci))
					if len(got) == 0 && len(want) == 0 {
						continue
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("A[u%d->u%d](v%d) = %v, want %v", u, up, v, got, want)
					}
				}
			}
		}
	}
}

func TestTreeSpaceOnlyMaterializesTreeEdges(t *testing.T) {
	q, g := testutil.PaperQuery(), testutil.PaperData()
	cand, _ := filter.Run(filter.CFL, q, g)
	tree := graph.NewBFSTree(q, 0)
	s := Build(q, g, cand, tree.Parent, nil)
	// Tree edges: (u0,u1), (u0,u2), (u1,u3). Non-tree: (u1,u2), (u2,u3).
	treePairs := [][2]graph.Vertex{{0, 1}, {1, 0}, {0, 2}, {2, 0}, {1, 3}, {3, 1}}
	for _, p := range treePairs {
		if !s.HasPair(p[0], p[1]) {
			t.Errorf("tree pair (%d,%d) not materialized", p[0], p[1])
		}
	}
	nonTree := [][2]graph.Vertex{{1, 2}, {2, 1}, {2, 3}, {3, 2}}
	for _, p := range nonTree {
		if s.HasPair(p[0], p[1]) {
			t.Errorf("non-tree pair (%d,%d) unexpectedly materialized", p[0], p[1])
		}
		if got := s.Adjacency(p[0], p[1], 0); got != nil {
			t.Errorf("Adjacency on non-tree pair = %v, want nil", got)
		}
	}
}

func TestMetrics(t *testing.T) {
	q, g, s := func() (*graph.Graph, *graph.Graph, *Space) {
		q, g := testutil.PaperQuery(), testutil.PaperData()
		cand, _ := filter.Run(filter.CFL, q, g)
		return q, g, BuildFull(q, g, cand)
	}()
	_ = g
	if got := s.TotalCandidates(); got != 7 {
		t.Errorf("TotalCandidates = %d, want 7", got)
	}
	if got := s.MeanCandidates(); got != 7.0/4.0 {
		t.Errorf("MeanCandidates = %v", got)
	}
	if s.MemoryBytes() <= 0 {
		t.Error("MemoryBytes should be positive")
	}
	if s.Query() != q {
		t.Error("Query() should return the query graph")
	}
}

func TestBlocksMatchPlainAdjacency(t *testing.T) {
	_, _, s := paperSpace(t)
	if s.HasBlocks() {
		t.Fatal("blocks should not exist before MaterializeBlocks")
	}
	s.MaterializeBlocks()
	s.MaterializeBlocks() // idempotent
	if !s.HasBlocks() {
		t.Fatal("HasBlocks after MaterializeBlocks")
	}
	q := s.Query()
	for u := 0; u < q.NumVertices(); u++ {
		uu := graph.Vertex(u)
		for _, up := range q.Neighbors(uu) {
			p := s.Pair(uu, up)
			for ci := range s.Candidates(uu) {
				plain := p.Adjacency(ci)
				bv := p.View(ci)
				if !bv.Valid() {
					t.Fatalf("missing block layout for (u%d,u%d,%d)", u, up, ci)
				}
				got := bv.Elements(nil)
				if len(got) == 0 && len(plain) == 0 {
					continue
				}
				if !reflect.DeepEqual(got, plain) {
					t.Fatalf("block layout mismatch for (u%d,u%d,%d): %v vs %v", u, up, ci, got, plain)
				}
			}
		}
	}
}
