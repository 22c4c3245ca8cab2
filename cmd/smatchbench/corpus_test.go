package main

import (
	"reflect"
	"testing"

	"subgraphmatching/internal/graph"
)

// small is a data graph on which the whole query pipeline runs in well
// under a second; the benchmark itself always uses g20.
var small = graphShape{Vertices: 3000, Edges: 30000, Labels: 12}

func TestRequestOrderIsTheSeed(t *testing.T) {
	a := requestOrder(48, 7, 3)
	if b := requestOrder(48, 7, 3); !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave two request sequences")
	}
	if len(a) != 48*3 {
		t.Fatalf("sequence has %d requests, want %d", len(a), 48*3)
	}
	// Every pass is the same permutation: a cyclic order, which is what
	// makes a 64-entry LRU miss all 256 queries of serve-cold.
	if !reflect.DeepEqual(a[:48], a[48:96]) || !reflect.DeepEqual(a[:48], a[96:]) {
		t.Error("passes of one sequence differ")
	}
	other := requestOrder(48, 8, 3)
	if reflect.DeepEqual(a, other) {
		t.Error("seeds 7 and 8 gave the same order")
	}
	// Another seed reorders the requests but sends each query exactly
	// as often, so the work of a round does not depend on the seed.
	count := func(seq []int32) []int {
		c := make([]int, 48)
		for _, q := range seq {
			c[q]++
		}
		return c
	}
	if ca, cb := count(a), count(other); !reflect.DeepEqual(ca, cb) || ca[0] != 3 {
		t.Errorf("per-query request counts differ across seeds: %v vs %v", ca, cb)
	}
}

func TestCorpusIsByteIdenticalAndDistinct(t *testing.T) {
	g, text, err := genGraph(small, 3)
	if err != nil {
		t.Fatal(err)
	}
	g2, text2, err := genGraph(small, 3)
	if err != nil {
		t.Fatal(err)
	}
	if string(text) != string(text2) {
		t.Fatal("same corpus seed gave two data graphs")
	}
	qs, err := mixedQueries(g, 3, 30)
	if err != nil {
		t.Fatal(err)
	}
	qs2, err := mixedQueries(g2, 3, 30)
	if err != nil {
		t.Fatal(err)
	}
	if len(qs) != 30 {
		t.Fatalf("got %d queries, want 30", len(qs))
	}
	seen := map[graph.Fingerprint]bool{}
	classes := map[string]int{}
	for i := range qs {
		if qs[i].Text != qs2[i].Text {
			t.Fatalf("query %d differs between two generations from one seed", i)
		}
		fp := graph.FingerprintOf(qs[i].G)
		if seen[fp] {
			t.Errorf("query %d repeats an earlier fingerprint", i)
		}
		seen[fp] = true
		classes[qs[i].Class]++
	}
	if len(classes) != 6 {
		t.Errorf("30 queries cover classes %v, want all six", classes)
	}
	// A longer list extends a shorter one, so serve-warm's hot set is a
	// prefix of serve-cold's.
	short, err := mixedQueries(g, 3, 12)
	if err != nil {
		t.Fatal(err)
	}
	for i := range short {
		if short[i].Text != qs[i].Text {
			t.Errorf("query %d of the 12-list is not query %d of the 30-list", i, i)
		}
	}
	other, err := mixedQueries(g, 4, 30)
	if err != nil {
		t.Fatal(err)
	}
	if other[0].Text == qs[0].Text && other[1].Text == qs[1].Text {
		t.Error("corpus seeds 3 and 4 gave the same queries")
	}
}

func TestDedupeByFingerprint(t *testing.T) {
	tri := graph.MustFromEdges([]graph.Label{0, 1, 2}, [][2]graph.Vertex{{0, 1}, {1, 2}, {0, 2}})
	same := graph.MustFromEdges([]graph.Label{0, 1, 2}, [][2]graph.Vertex{{0, 2}, {0, 1}, {1, 2}})
	path := graph.MustFromEdges([]graph.Label{0, 1, 2}, [][2]graph.Vertex{{0, 1}, {1, 2}})
	got := dedupe([]query{{G: tri, Class: "a"}, {G: path, Class: "b"}, {G: same, Class: "c"}, {G: path, Class: "d"}})
	var classes []string
	for _, q := range got {
		classes = append(classes, q.Class)
	}
	if want := []string{"a", "b"}; !reflect.DeepEqual(classes, want) {
		t.Errorf("dedupe kept %v, want %v (first of each fingerprint, in order)", classes, want)
	}
}

func TestOracleAgreesWithIndependentEngines(t *testing.T) {
	g, _, err := genGraph(small, 3)
	if err != nil {
		t.Fatal(err)
	}
	qs, err := mixedQueries(g, 3, 12)
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := buildOracle(g, qs, 1000)
	if err != nil {
		t.Fatal(err)
	}
	exact, vf2 := 0, 0
	for i, o := range oracle {
		if o.Exact && qs[i].G.NumVertices() == querySizes[0] {
			vf2++
		}
		if o.Count == 0 {
			t.Errorf("query %d was extracted from the graph but has no embedding", i)
		}
		if o.Exact {
			exact++
		} else if o.Count != 1000 {
			t.Errorf("query %d: capped at %d, want the limit 1000", i, o.Count)
		}
	}
	if exact == 0 {
		t.Error("no query stayed under the cap: the independent engines checked nothing")
	}
	if vf2 == 0 {
		t.Error("no 8-vertex query stayed under the cap: VF2 checked nothing")
	}
}

func TestOracleExpect(t *testing.T) {
	for _, tc := range []struct {
		o     oracleEntry
		limit uint64
		want  uint64
		fails bool
	}{
		{oracleEntry{Count: 37, Exact: true}, 1000, 37, false},
		{oracleEntry{Count: 37, Exact: true}, 20, 20, false},
		{oracleEntry{Count: 500000}, 500000, 500000, false},
		{oracleEntry{Count: 500000}, 1000, 1000, false},
		{oracleEntry{Count: 500000}, 1000000, 0, true}, // nobody counted that far
	} {
		got, err := tc.o.expect(tc.limit)
		if (err != nil) != tc.fails || got != tc.want {
			t.Errorf("%+v.expect(%d) = %d, %v; want %d, error %v", tc.o, tc.limit, got, err, tc.want, tc.fails)
		}
	}
}

func TestValidEmbedding(t *testing.T) {
	// Data: a labelled square 0-1-2-3-0 with the chord 0-2.
	g := graph.MustFromEdges([]graph.Label{5, 6, 5, 6}, [][2]graph.Vertex{{0, 1}, {1, 2}, {2, 3}, {3, 0}, {0, 2}})
	tri := [][2]graph.Vertex{{0, 1}, {1, 2}, {0, 2}}
	q := graph.MustFromEdges([]graph.Label{5, 6, 5}, tri)
	for _, m := range [][]uint32{{0, 1, 2}, {2, 3, 0}} {
		if err := validEmbedding(q, g, m); err != nil {
			t.Errorf("valid embedding %v rejected: %v", m, err)
		}
	}
	for name, m := range map[string][]uint32{
		"wrong label":   {1, 0, 2},
		"not injective": {0, 1, 0},
		"too short":     {0, 1},
		"out of range":  {0, 1, 9},
	} {
		if err := validEmbedding(q, g, m); err == nil {
			t.Errorf("%s: embedding %v accepted", name, m)
		}
	}
	// Labels and injectivity hold, but the query edge 0-2 lands on the
	// square's missing diagonal 1-3.
	q2 := graph.MustFromEdges([]graph.Label{6, 5, 6}, tri)
	if err := validEmbedding(q2, g, []uint32{1, 0, 3}); err == nil {
		t.Error("embedding that maps a query edge onto a non-edge accepted")
	}
}

func TestWorkloadTable(t *testing.T) {
	var names []string
	for _, w := range workloads {
		names = append(names, w.Name)
		if w.Passes < 1 || w.Queries < 1 || w.Limit < 1 || len(w.Why) > 200 {
			t.Errorf("%s: malformed workload %+v", w.Name, w)
		}
		if w.Heavy && w.Queries%len(querySizes) != 0 {
			t.Errorf("%s: %d queries do not split over %d sizes", w.Name, w.Queries, len(querySizes))
		}
		if got := w.passes(baseSeconds); got != w.Passes {
			t.Errorf("%s: %d passes at the base time, want %d", w.Name, got, w.Passes)
		}
		if got := w.passes(0.01); got != 1 {
			t.Errorf("%s: %d passes for a tiny run, want 1", w.Name, got)
		}
	}
	if want := []string{"serve-warm", "serve-cold", "enum-heavy", "stream-embeddings"}; !reflect.DeepEqual(names, want) {
		t.Errorf("workloads %v, want %v", names, want)
	}
}
