package core

import (
	"fmt"
	"hash/fnv"
	"reflect"
	"sync"
	"testing"

	"subgraphmatching/internal/graph"
	"subgraphmatching/internal/querygen"
	"subgraphmatching/internal/rmat"
)

// coldPlanAllocBudget is what one cold Preprocess of the Optimized
// preset allocates on a fixed 12-vertex query once the data graph's
// free lists are stocked: the plan, its spans, the filter's candidate
// slab and label classes, the order, and the candidate space's three
// slabs (headers, offsets, targets) over the one direction the order
// reads. The filter's membership bitmaps, candidate rows and witness
// records and the build's bitmap, prefix sums and row buffer come from
// the free lists; a change that puts one of them back on this path
// moves this number, on purpose or not.
const coldPlanAllocBudget = 129

// coldFixture draws an R-MAT data graph and querygen queries over it;
// the same arguments give the same graphs.
func coldFixture(t testing.TB, rc rmat.Config, qc querygen.Config) (*graph.Graph, []*graph.Graph) {
	t.Helper()
	g, err := rmat.Generate(rc)
	if err != nil {
		t.Fatal(err)
	}
	qs, err := querygen.Generate(g, qc)
	if err != nil {
		t.Fatal(err)
	}
	return g, qs
}

// TestColdPlanAllocBudget pins the allocations of a cold plan build.
func TestColdPlanAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation adds allocations (the matcher's growth among them)")
	}
	g, qs := coldFixture(t,
		rmat.Config{NumVertices: 3000, NumEdges: 24000, NumLabels: 8, Seed: 5},
		querygen.Config{NumVertices: 12, Count: 1, Density: querygen.Dense, Seed: 3})
	q := qs[0]
	cfg := PresetConfig(Optimized, q, g)
	for i := 0; i < 3; i++ { // build the indexes, then stock the free lists
		if _, err := Preprocess(q, g, cfg, 1); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := Preprocess(q, g, cfg, 1); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > coldPlanAllocBudget {
		t.Errorf("a cold plan build allocates %.0f times, budget %d", allocs, coldPlanAllocBudget)
	}
	if allocs < coldPlanAllocBudget {
		t.Logf("a cold plan build allocates %.0f times, under the budget of %d: lower coldPlanAllocBudget", allocs, coldPlanAllocBudget)
	}
}

// idleScratch reads a data graph's free lists of bitmaps and buffers:
// how many of each it holds, and how many bits the bitmaps still have
// set. They are unexported state, read by reflection so that the graph
// package grows no method only a test calls; callers read them with no
// build in flight.
func idleScratch(g *graph.Graph) (bitmaps, buffers, set int) {
	v := reflect.ValueOf(g).Elem()
	free := v.FieldByName("idleBitmaps")
	for i := 0; i < free.Len(); i++ {
		for b, j := free.Index(i), 0; j < b.Len(); j++ {
			if b.Index(j).Uint() != 0 {
				set++
			}
		}
	}
	return free.Len(), v.FieldByName("idleBuffers").Len(), set
}

// TestStressColdScratch builds cold plans from 8 goroutines at once
// against two data graphs of different |V|, under the GraphQL, CFL and
// DP-iso presets, so filters and candidate-space builds take and return
// the graphs' scratch concurrently. Every plan must be the one a build
// on a fresh copy of its graph, alone, gives (digestPlan: candidate
// sets, candidate space, order); afterwards each graph's free lists
// hold no more than their bounds (64 bitmaps, 8 buffers) and every
// parked bitmap is clear.
func TestStressColdScratch(t *testing.T) {
	type fixture struct {
		rc rmat.Config
		qc querygen.Config
	}
	fixtures := []fixture{
		{rmat.Config{NumVertices: 1500, NumEdges: 9000, NumLabels: 6, Seed: 3},
			querygen.Config{NumVertices: 8, Count: 3, Density: querygen.Dense, Seed: 4}},
		{rmat.Config{NumVertices: 700, NumEdges: 4200, NumLabels: 4, Seed: 9},
			querygen.Config{NumVertices: 10, Count: 3, Density: querygen.Sparse, Seed: 2}},
	}
	type cell struct {
		name string
		g, q *graph.Graph
		cfg  Config
		want uint64
	}
	digest := func(t *testing.T, q, g *graph.Graph, cfg Config) uint64 {
		p, err := Preprocess(q, g, cfg, 1)
		if err != nil {
			t.Error(err)
			return 0
		}
		h := fnv.New64a()
		digestPlan(t, h, p)
		return h.Sum64()
	}
	var cells []cell
	var shared []*graph.Graph
	for fi, f := range fixtures {
		g, qs := coldFixture(t, f.rc, f.qc)
		shared = append(shared, g)
		for qi, q := range qs {
			for _, a := range []Algorithm{GraphQL, CFL, DPIso} {
				fresh, _ := coldFixture(t, f.rc, f.qc)
				cfg := PresetConfig(a, q, g)
				cells = append(cells, cell{fmt.Sprintf("g%d/q%d/%v", fi, qi, a), g, q, cfg, digest(t, q, fresh, cfg)})
			}
		}
	}
	const workers, rounds = 8, 12
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for i := range cells {
					c := cells[(i+w*5+r)%len(cells)]
					if got := digest(t, c.q, c.g, c.cfg); got != c.want {
						t.Errorf("%s: concurrent plan digest %#x, alone on a fresh graph %#x", c.name, got, c.want)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	for i, g := range shared {
		bitmaps, buffers, set := idleScratch(g)
		if bitmaps > 64 || buffers > 8 {
			t.Errorf("graph %d keeps %d bitmaps and %d buffers idle, bounds 64 and 8", i, bitmaps, buffers)
		}
		if bitmaps == 0 || buffers == 0 {
			t.Errorf("graph %d keeps %d bitmaps and %d buffers idle: the builds handed none back", i, bitmaps, buffers)
		}
		if set != 0 {
			t.Errorf("graph %d: %d words of its idle bitmaps have bits set", i, set)
		}
	}
}
