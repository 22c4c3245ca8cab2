package candspace

import (
	"math/rand"
	"reflect"
	"testing"

	"subgraphmatching/internal/filter"
	"subgraphmatching/internal/graph"
	"subgraphmatching/internal/testutil"
)

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
	// Per materialized pair: FlatBlocks struct, offsets, keys, words (4),
	// plus the pair list, the two outer rows per query vertex and slack
	// for the runtime.
	bound := float64(6*pairs + 4*q.NumVertices() + 16)
	if blockAllocs > bound {
		t.Errorf("block materialization allocated %.0f objects for %d pairs (%d sets); bound %.0f — layout is not O(edges)",
			blockAllocs, pairs, sets, bound)
	}
}

// TestPairConsistent checks the resolved pair handle, the hot path's
// accessor: its slices are the space's adjacency lists, its views exist
// exactly when MaterializeBlocks ran before the pair was resolved and
// decode to the slices, and an index out of range or a pair that is not
// adjacent reads as absent.
func TestPairConsistent(t *testing.T) {
	q, g := testutil.PaperQuery(), testutil.PaperData()
	cand, _ := filter.Run(filter.NLF, q, g)
	s := BuildFull(q, g, cand)

	early := map[[2]graph.Vertex]Pair{}
	for u := 0; u < q.NumVertices(); u++ {
		uu := graph.Vertex(u)
		for _, up := range q.Neighbors(uu) {
			p := s.Pair(uu, up)
			early[[2]graph.Vertex{uu, up}] = p
			for ci := range s.Candidates(uu) {
				if p.View(ci).Valid() {
					t.Fatalf("(%d->%d)[%d]: view valid before MaterializeBlocks", uu, up, ci)
				}
				if !reflect.DeepEqual(p.Adjacency(ci), s.Adjacency(uu, up, ci)) {
					t.Fatalf("(%d->%d)[%d]: slice mismatch", uu, up, ci)
				}
			}
		}
		if p := s.Pair(uu, uu); p != (Pair{}) {
			t.Errorf("Pair(%d,%d) of a non-adjacent pair is not the zero Pair", uu, uu)
		}
	}
	s.MaterializeBlocks()
	for u := 0; u < q.NumVertices(); u++ {
		uu := graph.Vertex(u)
		for _, up := range q.Neighbors(uu) {
			if !s.HasPair(uu, up) {
				continue
			}
			p := s.Pair(uu, up)
			for ci := range s.Candidates(uu) {
				adj, bv := p.Adjacency(ci), p.View(ci)
				if !bv.Valid() {
					t.Fatalf("(%d->%d)[%d]: view invalid after MaterializeBlocks", uu, up, ci)
				}
				if got := bv.Elements([]uint32{}); !reflect.DeepEqual(got, append([]uint32{}, adj...)) {
					t.Fatalf("(%d->%d)[%d]: view decodes %v, slice %v", uu, up, ci, got, adj)
				}
				if early[[2]graph.Vertex{uu, up}].View(ci).Valid() {
					t.Fatalf("(%d->%d)[%d]: a pair resolved before MaterializeBlocks grew a view", uu, up, ci)
				}
			}
			n := len(s.Candidates(uu))
			for _, ci := range []int{-1, n} {
				if p.Adjacency(ci) != nil || p.View(ci).Valid() {
					t.Errorf("(%d->%d)[%d]: out-of-range index reads as present", uu, up, ci)
				}
			}
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
			p := s.Pair(uu, up)
			for ci := range s.Candidates(uu) {
				v := p.View(ci)
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
