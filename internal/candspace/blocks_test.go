package candspace

import (
	"math/rand"
	"reflect"
	"testing"

	"subgraphmatching/internal/filter"
	"subgraphmatching/internal/graph"
	"subgraphmatching/internal/testutil"
)

// flatBlocksEqual compares the block materializations of two spaces
// arena-by-arena — byte-identical layouts, not just equal decoded sets.
func flatBlocksEqual(t *testing.T, a, b *Space) {
	t.Helper()
	if !reflect.DeepEqual(a.flat, b.flat) {
		t.Fatal("flat block arenas differ between builds")
	}
}

// TestMaterializeBlocksParallelIdentical pins the two-phase build's
// determinism claim: the materialization produces arenas byte-identical
// to the one-worker ones at every worker count, and one tally per
// worker.
func TestMaterializeBlocksParallelIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 10; trial++ {
		g := testutil.RandomGraph(rng, 30+rng.Intn(30), 150, 3)
		q := testutil.RandomConnectedQuery(rng, g, 4)
		if q == nil {
			continue
		}
		cand, _ := filter.Run(filter.NLF, q, g)
		seq := BuildFull(q, g, cand)
		seq.MaterializeBlocks()
		for _, workers := range []int{1, 2, 4, 8} {
			par := BuildFull(q, g, cand)
			work := par.MaterializeBlocks(workers)
			if !par.HasBlocks() {
				t.Fatalf("workers=%d: HasBlocks false after materialization", workers)
			}
			flatBlocksEqual(t, seq, par)
			if len(work) != workers {
				t.Fatalf("workers=%d: tally %v, want one entry per worker", workers, work)
			}
			var total uint64
			for _, w := range work {
				total += w
			}
			if total == 0 && seq.BlockMemoryBytes() > 0 {
				t.Errorf("workers=%d: zero work tallied for nonempty layout", workers)
			}
		}
	}
}

// TestMaterializeBlocksAllocsScaleWithEdges is the flat layout's reason
// to exist: materialization allocates O(query edges) objects — a few
// allocations per directed pair for the shared arenas — not O(candidate
// adjacency sets). The boxed per-candidate layout allocated ~4 objects
// per candidate and would blow far past this bound.
func TestMaterializeBlocksAllocsScaleWithEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := testutil.RandomGraph(rng, 200, 1600, 2)
	var q *graph.Graph
	for q == nil {
		q = testutil.RandomConnectedQuery(rng, g, 5)
	}
	cand, _ := filter.Run(filter.NLF, q, g)
	proto := BuildFull(q, g, cand)
	pairs, sets := 0, 0
	for u := 0; u < q.NumVertices(); u++ {
		uu := graph.Vertex(u)
		for _, up := range q.Neighbors(uu) {
			if proto.HasPair(uu, up) {
				pairs++
				sets += len(proto.Candidates(uu))
			}
		}
	}
	if sets < pairs*8 {
		t.Skipf("fixture too small to separate O(pairs) from O(sets): %d sets, %d pairs", sets, pairs)
	}
	allocs := testing.AllocsPerRun(10, func() {
		s := BuildFull(q, g, cand)
		s.MaterializeBlocks()
	})
	base := testing.AllocsPerRun(10, func() {
		BuildFull(q, g, cand)
	})
	blockAllocs := allocs - base
	// Per materialized pair: counts slice, FlatBlocks struct, offsets,
	// keys, words (5), plus the two outer rows per query vertex and
	// slack for the runtime.
	bound := float64(6*pairs + 4*q.NumVertices() + 16)
	if blockAllocs > bound {
		t.Errorf("block materialization allocated %.0f objects for %d pairs (%d sets); bound %.0f — layout is not O(edges)",
			blockAllocs, pairs, sets, bound)
	}
}

// TestAdjacencyWithViewConsistent checks the hot-path accessor against
// the separate slice and view lookups.
func TestAdjacencyWithViewConsistent(t *testing.T) {
	q, g := testutil.PaperQuery(), testutil.PaperData()
	cand, _ := filter.Run(filter.NLF, q, g)
	s := BuildFull(q, g, cand)

	// Before materialization: slices present, views absent.
	for u := 0; u < q.NumVertices(); u++ {
		uu := graph.Vertex(u)
		for _, up := range q.Neighbors(uu) {
			for ci := range s.Candidates(uu) {
				adj, bv := s.AdjacencyWithView(uu, up, ci)
				if bv.Valid() {
					t.Fatalf("(%d->%d)[%d]: view valid before MaterializeBlocks", uu, up, ci)
				}
				if !reflect.DeepEqual(adj, s.Adjacency(uu, up, ci)) {
					t.Fatalf("(%d->%d)[%d]: slice mismatch", uu, up, ci)
				}
			}
		}
	}
	s.MaterializeBlocks()
	for u := 0; u < q.NumVertices(); u++ {
		uu := graph.Vertex(u)
		for _, up := range q.Neighbors(uu) {
			if !s.HasPair(uu, up) {
				continue
			}
			for ci := range s.Candidates(uu) {
				adj, bv := s.AdjacencyWithView(uu, up, ci)
				if !bv.Valid() {
					t.Fatalf("(%d->%d)[%d]: view invalid after MaterializeBlocks", uu, up, ci)
				}
				if got := bv.Elements([]uint32{}); !reflect.DeepEqual(got, append([]uint32{}, adj...)) {
					t.Fatalf("(%d->%d)[%d]: view decodes %v, slice %v", uu, up, ci, got, adj)
				}
				if want := s.AdjacencyView(uu, up, ci); !reflect.DeepEqual(bv, want) {
					t.Fatalf("(%d->%d)[%d]: AdjacencyWithView view differs from AdjacencyView", uu, up, ci)
				}
			}
		}
	}
}

// TestPairSize checks the planner's O(1) per-edge size stat against the
// explicit per-candidate sum.
func TestPairSize(t *testing.T) {
	q, g := testutil.PaperQuery(), testutil.PaperData()
	cand, _ := filter.Run(filter.NLF, q, g)
	s := BuildFull(q, g, cand)
	for u := 0; u < q.NumVertices(); u++ {
		uu := graph.Vertex(u)
		for _, up := range q.Neighbors(uu) {
			want := 0
			for ci := range s.Candidates(uu) {
				want += len(s.Adjacency(uu, up, ci))
			}
			if got := s.PairSize(uu, up); got != want {
				t.Errorf("PairSize(%d,%d) = %d, want %d", uu, up, got, want)
			}
		}
		// Non-adjacent pairs (including u itself) report 0.
		if got := s.PairSize(uu, uu); got != 0 {
			t.Errorf("PairSize(%d,%d) = %d, want 0", uu, uu, got)
		}
	}
}

// TestBlockStats cross-checks the aggregate layout stats against the
// per-view sums.
func TestBlockStats(t *testing.T) {
	q, g := testutil.PaperQuery(), testutil.PaperData()
	cand, _ := filter.Run(filter.NLF, q, g)
	s := BuildFull(q, g, cand)
	if sets, blocks, elems := s.BlockStats(); sets != 0 || blocks != 0 || elems != 0 {
		t.Fatalf("BlockStats before materialization = %d/%d/%d", sets, blocks, elems)
	}
	if s.BlockMemoryBytes() != 0 {
		t.Fatal("BlockMemoryBytes nonzero before materialization")
	}
	s.MaterializeBlocks()
	sets, blocks, elems := s.BlockStats()
	wantSets, wantBlocks, wantElems := 0, 0, 0
	for u := 0; u < q.NumVertices(); u++ {
		uu := graph.Vertex(u)
		for _, up := range q.Neighbors(uu) {
			if !s.HasPair(uu, up) {
				continue
			}
			for ci := range s.Candidates(uu) {
				v := s.AdjacencyView(uu, up, ci)
				wantSets++
				wantBlocks += v.NumBlocks()
				wantElems += v.Count()
			}
		}
	}
	if sets != wantSets || blocks != wantBlocks || elems != wantElems {
		t.Errorf("BlockStats = %d/%d/%d, want %d/%d/%d", sets, blocks, elems, wantSets, wantBlocks, wantElems)
	}
	if elems > 0 && s.BlockMemoryBytes() <= 0 {
		t.Errorf("BlockMemoryBytes = %d with %d elements", s.BlockMemoryBytes(), elems)
	}
}

// TestParallelMaterializeStress is the race-detector gate for the
// parallel block build (`make race-stress`): repeated 8-worker
// materializations, each compared arena-by-arena to the sequential
// reference.
func TestParallelMaterializeStress(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	g := testutil.RandomGraph(rng, 60, 240, 3)
	var q *graph.Graph
	for q == nil {
		q = testutil.RandomConnectedQuery(rng, g, 5)
	}
	cand, _ := filter.Run(filter.NLF, q, g)
	seq := BuildFull(q, g, cand)
	seq.MaterializeBlocks()
	for i := 0; i < 50; i++ {
		s := BuildFull(q, g, cand)
		s.MaterializeBlocks(8)
		flatBlocksEqual(t, seq, s)
	}
}
