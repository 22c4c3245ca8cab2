package graph

import (
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// randomSparseGraph leaves roughly a quarter of the vertices isolated
// and draws labels from a set with gaps (so some label values below the
// maximum never occur).
func randomSparseGraph(rng *rand.Rand) *Graph {
	n := 1 + rng.Intn(40)
	b := NewBuilder(n, 3*n)
	for i := 0; i < n; i++ {
		b.AddVertex(Label(rng.Intn(5)) * 3)
	}
	for i := 0; i < 3*n; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v && u%4 != 0 && v%4 != 0 {
			b.AddEdge(Vertex(u), Vertex(v))
		}
	}
	return b.MustBuild()
}

// The index must say exactly what counting L(N(v)) says: the same
// labels, in ascending order, with the same counts — and nothing for an
// isolated vertex. The signature is those labels folded to bits mod 64.
func TestNLFMatchesLabelCounter(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		g := randomSparseGraph(rand.New(rand.NewSource(seed)))
		if g.IndexBytes() != 0 {
			t.Fatalf("seed %d: IndexBytes = %d before first use", seed, g.IndexBytes())
		}
		x := g.NLF()
		c := NewLabelCounter(MaxLabelOf(g))
		entries := 0
		for v := 0; v < g.NumVertices(); v++ {
			labels, counts := x.Of(Vertex(v))
			c.CountNeighbors(g, Vertex(v))
			want := slices.Clone(c.Touched())
			slices.Sort(want)
			if !slices.Equal(labels, want) {
				t.Fatalf("seed %d: labels of N(%d) = %v, want %v", seed, v, labels, want)
			}
			for i, l := range labels {
				if counts[i] != c.Count(l) {
					t.Fatalf("seed %d: vertex %d label %d: count %d, want %d", seed, v, l, counts[i], c.Count(l))
				}
			}
			var sig uint64
			for _, l := range labels {
				sig |= 1 << (l % 64)
			}
			if x.Signature(Vertex(v)) != sig {
				t.Fatalf("seed %d: signature of N(%d) = %#x, want %#x", seed, v, x.Signature(Vertex(v)), sig)
			}
			entries += len(labels)
		}
		want := int64(g.NumVertices()+1)*4 + int64(entries)*8 + int64(g.NumVertices())*8
		if x.Bytes() != want || g.IndexBytes() != want {
			t.Fatalf("seed %d: Bytes = %d, IndexBytes = %d, want %d", seed, x.Bytes(), g.IndexBytes(), want)
		}
	}
}

// Labels that differ by a multiple of 64 share a signature bit: the
// signature says "some neighbour has label l or one colliding with it",
// never more.
func TestNLFSignatureCollidesMod64(t *testing.T) {
	// A path 0-1-2-3 labelled 5, 69, 133, 6: vertex 1 sees {5, 133}
	// (one bit), vertex 2 sees {69, 6} (two bits).
	g := MustFromEdges([]Label{5, 69, 133, 6}, [][2]Vertex{{0, 1}, {1, 2}, {2, 3}})
	x := g.NLF()
	for v, want := range []uint64{1 << 5, 1 << 5, 1<<5 | 1<<6, 1 << 5} {
		if got := x.Signature(Vertex(v)); got != want {
			t.Errorf("signature of N(%d) = %#x, want %#x", v, got, want)
		}
	}
}

func TestNLFEmptyGraph(t *testing.T) {
	var g Graph
	if x := g.NLF(); x.Bytes() != 4 {
		t.Fatalf("empty graph index holds %d bytes, want the 4 of its one offset", x.Bytes())
	}
}

// First use from several goroutines at once builds one index that all
// of them see (run under -race by `make race-stress`).
func TestNLFFirstUseStress(t *testing.T) {
	for round := 0; round < 20; round++ {
		g := randomSparseGraph(rand.New(rand.NewSource(int64(round))))
		const callers = 8
		got := make([]*NLF, callers)
		var wg sync.WaitGroup
		for i := 0; i < callers; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				got[i] = g.NLF()
				_ = g.IndexBytes()
			}(i)
		}
		wg.Wait()
		for i := 1; i < callers; i++ {
			if got[i] != got[0] {
				t.Fatalf("round %d: caller %d got a different index", round, i)
			}
		}
	}
}
