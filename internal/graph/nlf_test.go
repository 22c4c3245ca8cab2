package graph

import (
	"math"
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

// withLabels returns g's topology with every label l replaced by f(l).
func withLabels(g *Graph, f func(Label) Label) *Graph {
	b := NewBuilder(g.NumVertices(), g.NumEdges())
	for v := 0; v < g.NumVertices(); v++ {
		b.AddVertex(f(g.Label(Vertex(v))))
	}
	for v := 0; v < g.NumVertices(); v++ {
		for _, w := range g.Neighbors(Vertex(v)) {
			if Vertex(v) < w {
				b.AddEdge(Vertex(v), w)
			}
		}
	}
	return b.MustBuild()
}

// hugeLabel moves randomSparseGraph's labels {0, 3, 6, 9, 12} to a
// sparse alphabet near the top of uint32, where 4 000 000 000 and
// 4 000 000 064 share signature bit 0.
func hugeLabel(l Label) Label {
	switch l {
	case 0:
		return 7
	case 3:
		return 4_000_000_000
	case 6:
		return 4_000_000_064
	case 9:
		return math.MaxUint32
	}
	return l
}

// maxLabel is g's largest label, 0 for the empty graph.
func maxLabel(g *Graph) Label {
	var largest Label
	for _, l := range g.Labels() {
		largest = max(largest, l)
	}
	return largest
}

// probeLabels lists the labels to look up in g's index: every label up
// to one past the largest or 300, whichever is less, and each label the
// graph has with its two neighbours.
func probeLabels(g *Graph) []Label {
	var probes []Label
	for l := Label(0); l <= min(maxLabel(g)+1, 300); l++ {
		probes = append(probes, l)
	}
	for _, l := range g.Labels() {
		probes = append(probes, l-1, l, l+1)
	}
	return probes
}

// The index must say exactly what counting L(N(v)) says: one entry per
// distinct neighbour label, the same count for every label (0 for the
// labels v does not see, and nothing for an isolated vertex), with and
// without the labels stored. The signature is those labels folded to
// bits mod 64, and Bytes is 4 bytes an entry, 8 when the index is not
// exact. The counts are kept in a map, as a dense counter's table would
// be as long as the largest label: on the graphs with sparse, huge
// labels (every third seed) neither may the build's be, which its
// allocations bound.
func TestNLFMatchesLabelCounter(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		g := randomSparseGraph(rand.New(rand.NewSource(seed)))
		switch seed % 3 {
		case 1:
			g = withLabels(g, func(l Label) Label { return l * 22 }) // up to 264
		case 2:
			g = withLabels(g, hugeLabel)
			if b, _ := allocated(1, func() { buildNLF(g) }); b > 64<<10 {
				t.Fatalf("seed %d: building the index of %v allocated %.0f B", seed, g, b)
			}
		}
		if g.IndexBytes() != 0 {
			t.Fatalf("seed %d: IndexBytes = %d before first use", seed, g.IndexBytes())
		}
		x := g.NLF()
		probes := probeLabels(g)
		entries, exact := 0, true
		for v := 0; v < g.NumVertices(); v++ {
			counts := map[Label]int{}
			for _, w := range g.Neighbors(Vertex(v)) {
				counts[g.Label(w)]++
			}
			if got := int(x.off[v+1] - x.off[v]); got != len(counts) {
				t.Fatalf("seed %d: N(%d) has %d entries, want %d", seed, v, got, len(counts))
			}
			for _, l := range probes {
				if got := x.Count(Vertex(v), l); got != counts[l] {
					t.Fatalf("seed %d: vertex %d label %d: count %d, want %d", seed, v, l, got, counts[l])
				}
			}
			var sig uint64
			for l := range counts {
				sig |= 1 << (l % 64)
				exact = exact && l < 64
			}
			if x.Signature(Vertex(v)) != sig {
				t.Fatalf("seed %d: signature of N(%d) = %#x, want %#x", seed, v, x.Signature(Vertex(v)), sig)
			}
			entries += len(counts)
		}
		if x.Exact() != exact {
			t.Fatalf("seed %d: Exact = %v, want %v", seed, x.Exact(), exact)
		}
		n, e := int64(g.NumVertices()), int64(entries)
		if !exact {
			e *= 2 // each entry's label beside its run end
		}
		want := (n+1)*4 + e*4 + n*8 + int64(2*g.NumEdges())*4 + (n+63)/64*8
		if x.Bytes() != want || g.IndexBytes() != want {
			t.Fatalf("seed %d: Bytes = %d, IndexBytes = %d, want %d", seed, x.Bytes(), g.IndexBytes(), want)
		}
	}
}

// An exact index stores no labels: moving every label from l to l+64
// keeps the signatures, the runs and the counts, and costs the 4 bytes
// of a stored label per entry.
func TestNLFExactStoresNoLabels(t *testing.T) {
	var wide int
	for seed := int64(0); seed < 100; seed++ {
		g := randomSparseGraph(rand.New(rand.NewSource(seed)))
		h := withLabels(g, func(l Label) Label { return l + 64 })
		gx, hx := g.NLF(), h.NLF()
		entries := int64(gx.off[g.NumVertices()])
		if !gx.Exact() || hx.Exact() != (entries == 0) {
			t.Fatalf("seed %d: Exact = %v / %v with %d entries", seed, gx.Exact(), hx.Exact(), entries)
		}
		if entries > 0 {
			wide++
		}
		if hx.Bytes() != gx.Bytes()+4*entries {
			t.Fatalf("seed %d: Bytes = %d exact, %d with labels, want a difference of %d", seed, gx.Bytes(), hx.Bytes(), 4*entries)
		}
		for v := 0; v < g.NumVertices(); v++ {
			if gx.Signature(Vertex(v)) != hx.Signature(Vertex(v)) {
				t.Fatalf("seed %d: signature of N(%d) = %#x exact, %#x with labels", seed, v, gx.Signature(Vertex(v)), hx.Signature(Vertex(v)))
			}
			for l := Label(0); l <= maxLabel(g)+1; l++ {
				if !slices.Equal(gx.Run(Vertex(v), l), hx.Run(Vertex(v), l+64)) || gx.Count(Vertex(v), l) != hx.Count(Vertex(v), l+64) {
					t.Fatalf("seed %d: vertex %d: label %d runs %v (count %d), label %d runs %v (count %d)", seed, v,
						l, gx.Run(Vertex(v), l), gx.Count(Vertex(v), l), l+64, hx.Run(Vertex(v), l+64), hx.Count(Vertex(v), l+64))
				}
				if hx.Count(Vertex(v), l) != 0 || hx.Run(Vertex(v), l) != nil {
					t.Fatalf("seed %d: vertex %d: label %d found on the shifted index", seed, v, l)
				}
			}
		}
	}
	if wide == 0 {
		t.Fatal("degenerate corpus: no graph has an edge")
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
// of them see, and one set of pool signatures (run under -race by
// `make race-stress`).
func TestNLFFirstUseStress(t *testing.T) {
	for round := 0; round < 20; round++ {
		g := randomSparseGraph(rand.New(rand.NewSource(int64(round))))
		const callers = 8
		got := make([]*NLF, callers)
		sigs := make([][]uint64, callers)
		var wg sync.WaitGroup
		for i := 0; i < callers; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				if i%2 == 0 {
					sigs[i] = g.PoolSignatures(0)
				}
				got[i] = g.NLF()
				_ = g.IndexBytes()
				sigs[i] = g.PoolSignatures(0)
			}(i)
		}
		wg.Wait()
		for i := 1; i < callers; i++ {
			if got[i] != got[0] {
				t.Fatalf("round %d: caller %d got a different index", round, i)
			}
			if len(sigs[i]) > 0 && &sigs[i][0] != &sigs[0][0] {
				t.Fatalf("round %d: caller %d got different pool signatures", round, i)
			}
		}
	}
}

// PoolSignatures(l) is NLF.Signature over VerticesWithLabel(l), in pool
// order, for every label; it is counted in IndexBytes (8 bytes a
// vertex) from its first use, and a label the graph lacks has none.
func TestPoolSignatures(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		g := randomSparseGraph(rand.New(rand.NewSource(seed)))
		x := g.NLF()
		if g.IndexBytes() != x.Bytes() {
			t.Fatalf("seed %d: IndexBytes = %d before PoolSignatures, NLF %d", seed, g.IndexBytes(), x.Bytes())
		}
		for l := Label(0); l <= maxLabel(g)+1; l++ {
			pool, sigs := g.VerticesWithLabel(l), g.PoolSignatures(l)
			if len(sigs) != len(pool) {
				t.Fatalf("seed %d: label %d: %d signatures for %d vertices", seed, l, len(sigs), len(pool))
			}
			for i, v := range pool {
				if sigs[i] != x.Signature(v) {
					t.Fatalf("seed %d: label %d: signature %d is %#x, Signature(%d) = %#x", seed, l, i, sigs[i], v, x.Signature(v))
				}
			}
		}
		if want := x.Bytes() + int64(g.NumVertices())*8; g.IndexBytes() != want {
			t.Fatalf("seed %d: IndexBytes = %d, want %d", seed, g.IndexBytes(), want)
		}
	}
}

// On graphs with 64 distinct labels, where the ranks of N(v) come out
// of one word of bits, and with 65 and about 1 500, where they are
// sorted, every run is N(v) filtered by label, and the runs of v tile
// its slot in label order. The labels are multiples of 3, so none of
// the indexes is exact and each entry's label is stored.
func TestNLFManyLabels(t *testing.T) {
	for _, k := range []int{64, 65, 2000} {
		rng := rand.New(rand.NewSource(3))
		const n = 3000
		b := NewBuilder(n, 8*n)
		for i := 0; i < n; i++ {
			b.AddVertex(Label(rng.Intn(k)) * 3)
		}
		for i := 0; i < 8*n; i++ {
			u, v := Vertex(rng.Intn(n)), Vertex(rng.Intn(n/10)) // hubs among the first tenth
			if u != v {
				b.AddEdge(u, v)
			}
		}
		g := b.MustBuild()
		if (g.NumLabels() > 64) != (k > 64) {
			t.Fatalf("%d labels drawn from %d", g.NumLabels(), k)
		}
		checkRunsTile(t, g)
	}
}

// checkRunsTile checks every run of g's index against N(v) filtered by
// its label, and that v's runs, in ascending label order, hold all of
// N(v).
func checkRunsTile(t *testing.T, g *Graph) {
	t.Helper()
	n := g.NumVertices()
	x := g.NLF()
	for v := 0; v < n; v++ {
		var tiled []Vertex
		var prev Label
		for e := x.off[v]; e < x.off[v+1]; e++ {
			l := x.lab[e]
			if e > x.off[v] && l <= prev {
				t.Fatalf("vertex %d: labels %d then %d", v, prev, l)
			}
			prev = l
			var want []Vertex
			for _, w := range g.Neighbors(Vertex(v)) {
				if g.Label(w) == l {
					want = append(want, w)
				}
			}
			if got := x.Run(Vertex(v), l); !slices.Equal(got, want) {
				t.Fatalf("vertex %d label %d: run %v, want %v", v, l, got, want)
			}
			tiled = append(tiled, want...)
		}
		if len(tiled) != g.Degree(Vertex(v)) {
			t.Fatalf("vertex %d: runs hold %d of %d neighbours", v, len(tiled), g.Degree(Vertex(v)))
		}
	}
}
