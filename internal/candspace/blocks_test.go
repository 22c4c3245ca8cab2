package candspace

import (
	"math/rand"
	"reflect"
	"testing"

	"subgraphmatching/internal/filter"
	"subgraphmatching/internal/graph"
	"subgraphmatching/internal/intersect"
	"subgraphmatching/internal/testutil"
)

// encodedArenas lists a space's block arenas pair by pair, nil for a
// pair without one or not yet encoded.
func encodedArenas(s *Space) [][]*intersect.FlatBlocks {
	out := make([][]*intersect.FlatBlocks, len(s.arenas))
	for u, row := range s.arenas {
		out[u] = make([]*intersect.FlatBlocks, len(row))
		for i, a := range row {
			if a != nil {
				out[u][i] = a.flat
			}
		}
	}
	return out
}

// flatBlocksEqual compares the block materializations of two spaces
// arena-by-arena — byte-identical layouts, not just equal decoded sets.
func flatBlocksEqual(t *testing.T, a, b *Space) {
	t.Helper()
	if !reflect.DeepEqual(encodedArenas(a), encodedArenas(b)) {
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

// TestPlanBlocksEncodesOnFirstView: PlanBlocks offers every pair's
// layout — the block counts the eager arenas hold — and encodes nothing;
// the first view of a pair encodes that pair's arena and no other, the
// arena the eager build makes; and the planned bytes and stats are the
// eager build's before any arena is encoded and after all of them are.
func TestPlanBlocksEncodesOnFirstView(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	g := testutil.RandomGraph(rng, 60, 240, 3)
	var q *graph.Graph
	for q == nil {
		q = testutil.RandomConnectedQuery(rng, g, 5)
	}
	cand, _ := filter.Run(filter.NLF, q, g)
	lazy, eager := BuildFull(q, g, cand), BuildFull(q, g, cand)
	lazy.PlanBlocks()
	eager.MaterializeBlocks()
	if !lazy.HasBlocks() {
		t.Fatal("HasBlocks false after PlanBlocks")
	}
	arenas, bytes := eager.EncodedBlocks()
	if arenas == 0 || bytes != eager.BlockMemoryBytes() {
		t.Fatalf("eager build encoded %d arenas of %d bytes, planned %d", arenas, bytes, eager.BlockMemoryBytes())
	}
	planned := func() {
		t.Helper()
		if lazy.BlockMemoryBytes() != eager.BlockMemoryBytes() {
			t.Fatalf("planned %d block bytes, eager build %d", lazy.BlockMemoryBytes(), eager.BlockMemoryBytes())
		}
		ls, lb, le := lazy.BlockStats()
		es, eb, ee := eager.BlockStats()
		if ls != es || lb != eb || le != ee {
			t.Fatalf("BlockStats %d/%d/%d, eager build %d/%d/%d", ls, lb, le, es, eb, ee)
		}
	}
	planned()
	if n, b := lazy.EncodedBlocks(); n != 0 || b != 0 {
		t.Fatalf("PlanBlocks encoded %d arenas (%d bytes)", n, b)
	}
	encoded := 0
	for u := 0; u < q.NumVertices(); u++ {
		uu := graph.Vertex(u)
		for _, up := range q.Neighbors(uu) {
			p, e := lazy.Pair(uu, up), eager.Pair(uu, up)
			for ci := range lazy.Candidates(uu) {
				if got, want := p.Layout(ci).Blocks, e.View(ci).NumBlocks(); got != want {
					t.Fatalf("(%d->%d)[%d]: layout counts %d blocks, eager view %d", uu, up, ci, got, want)
				}
			}
			if n, _ := lazy.EncodedBlocks(); n != encoded {
				t.Fatalf("(%d->%d): reading block counts encoded an arena", uu, up)
			}
			if len(lazy.Candidates(uu)) == 0 {
				continue
			}
			for ci := range lazy.Candidates(uu) {
				if got, want := p.View(ci), e.View(ci); !reflect.DeepEqual(got, want) {
					t.Fatalf("(%d->%d)[%d]: view %v, eager build %v", uu, up, ci, got, want)
				}
			}
			encoded++
			if n, _ := lazy.EncodedBlocks(); n != encoded {
				t.Fatalf("(%d->%d): %d arenas encoded after views of %d pairs", uu, up, n, encoded)
			}
		}
	}
	if n, b := lazy.EncodedBlocks(); n != arenas || b != bytes {
		t.Fatalf("every pair viewed: %d arenas of %d bytes encoded, eager build %d of %d", n, b, arenas, bytes)
	}
	flatBlocksEqual(t, lazy, eager)
	planned()
}
