package graph

import (
	"math"
	"math/bits"
	"slices"
)

// NLF is the neighbour-label-frequency index of a graph: for every
// vertex v the distinct labels of N(v) in ascending order, each with
// the number of neighbours carrying it. It is one flat CSR — vertex v
// owns entries off[v]:off[v+1] of lab and cnt — so the NLF filter's
// "does v have at least k neighbours labelled l" is a merge of two
// short sorted lists instead of a recount of L(N(v)) per check.
//
// Beside the lists sits a 64-bit label-presence signature per vertex:
// bit l%64 is set iff some neighbour carries label l. A vertex whose
// signature misses a bit of the requirement's cannot pass the merge, so
// most rejections are one AND-NOT on a dense array and never touch the
// lists; labels that collide mod 64 only make the signature say "maybe".
// When every neighbour label of the graph is below 64 nothing collides
// and the signature is exact (Exact).
//
// The index also holds N(v) grouped by label — the label runs: the
// neighbours carrying entry e's label are nbr[pos[e]:pos[e+1]], in
// ascending order. Every structural filter rule and the candidate-space
// build ask for "the neighbours of v that carry label l" (the only ones
// that can be candidates of a query vertex labelled l), and Run answers
// without reading the rest of N(v). v's runs fill exactly the slot its
// sorted adjacency list fills in the graph, so the runs of all vertices
// tile nbr in entry order and one position per entry bounds two runs.
//
// Size: Σ_v min(d(v), |Σ|) entries of 16 bytes, 2|E| grouped neighbours
// of 4 bytes, and 12 bytes plus one bit per vertex. Entry offsets are
// int32, so the index holds at most 2³¹−1 entries (the build enforces
// it); run positions are int64, like the graph's own offsets.
type NLF struct {
	off    []int32
	lab    []Label
	cnt    []int32
	pos    []int64 // entry e's run is nbr[pos[e]:pos[e+1]]; empty without entries
	sig    []uint64
	nbr    []Vertex
	single []uint64 // bit v: each label of N(v) occurs once
	exact  bool     // every neighbour label is below 64
}

// Of returns v's neighbour labels in ascending order and, aligned with
// them, how many neighbours carry each. The slices alias the index and
// must not be modified.
func (x *NLF) Of(v Vertex) ([]Label, []int32) {
	lo, hi := x.off[v], x.off[v+1]
	return x.lab[lo:hi], x.cnt[lo:hi]
}

// Signature returns v's label-presence signature: bit l%64 is set iff
// some neighbour of v carries label l. If Signature(u) of a requirement
// has a bit that Signature(v) lacks, v has no neighbour with one of the
// labels u needs.
func (x *NLF) Signature(v Vertex) uint64 { return x.sig[v] }

// Exact reports whether every neighbour label of the graph is below 64:
// then a signature bit stands for one label, and a label's run is found
// from the signature alone.
func (x *NLF) Exact() bool { return x.exact }

// PresenceOnly reports whether each label of N(v) occurs once. As a
// requirement such a vertex asks only that its labels be present, so
// between two exact indexes its NLF check is the signature test.
func (x *NLF) PresenceOnly(v Vertex) bool { return x.single[v/64]&(1<<(v%64)) != 0 }

// Run returns the neighbours of v that carry label l, in ascending
// order (nil when there are none). On an exact index the run's entry is
// the rank of bit l among the signature's set bits, one popcount;
// otherwise it is binary-searched among v's labels. The slice aliases
// the index and must not be modified.
func (x *NLF) Run(v Vertex, l Label) []Vertex {
	lo, hi := x.off[v], x.off[v+1]
	var e int32
	if x.exact {
		if l >= 64 {
			return nil
		}
		bit := uint64(1) << l
		if x.sig[v]&bit == 0 {
			return nil
		}
		e = lo + int32(bits.OnesCount64(x.sig[v]&(bit-1)))
	} else {
		i, ok := slices.BinarySearch(x.lab[lo:hi], l)
		if !ok {
			return nil
		}
		e = lo + int32(i)
	}
	return x.nbr[x.pos[e]:x.pos[e+1]]
}

// Bytes returns the heap footprint of the index arrays.
func (x *NLF) Bytes() int64 {
	return int64(len(x.off))*4 + int64(len(x.lab))*8 + int64(len(x.pos))*8 +
		int64(len(x.sig))*8 + int64(len(x.nbr))*4 + int64(len(x.single))*8
}

// NLF returns the graph's neighbour-label-frequency index, building it
// on first use: loading a graph (text, FromCSR, a snapshot open) stays
// as cheap as before, and a graph that is never filtered — or a query
// graph nobody asks — never pays. Safe for concurrent use; every caller
// gets the same index.
func (g *Graph) NLF() *NLF {
	g.nlfOnce.Do(func() { g.nlf.Store(buildNLF(g)) })
	return g.nlf.Load()
}

// IndexBytes returns the memory held by the indexes built lazily on
// this graph — the NLF index and the pool-ordered signatures: 0 until
// first use.
func (g *Graph) IndexBytes() int64 {
	var b int64
	if x := g.nlf.Load(); x != nil {
		b += x.Bytes()
	}
	if g.poolSigs.Load() != nil {
		b += int64(g.NumVertices()) * 8
	}
	return b
}

// PoolSignatures returns the NLF signatures (NLF.Signature) of the
// vertices labelled l, aligned with VerticesWithLabel(l), so a filter
// that tests every vertex of a label pool reads them in one sequential
// pass instead of one random load per vertex. Built for all pools on
// first use — 8 bytes per vertex, counted in IndexBytes — and only on
// graphs that are asked, which a query graph never is. The slice
// aliases the index and must not be modified. Safe for concurrent use.
func (g *Graph) PoolSignatures(l Label) []uint64 {
	g.poolSigOnce.Do(func() {
		x := g.NLF()
		flat := make([]uint64, 0, g.NumVertices())
		byLabel := map[Label][]uint64{}
		for l, pool := range g.labelIndex() {
			lo := len(flat)
			for _, v := range pool {
				flat = append(flat, x.sig[v])
			}
			byLabel[l] = flat[lo:len(flat):len(flat)]
		}
		g.poolSigs.Store(&byLabel)
	})
	return (*g.poolSigs.Load())[l]
}

// buildNLF sorts each neighbourhood by (label, id) and run-length
// encodes the labels. The index stays resident for the graph's
// lifetime, so the entry arrays grown while building are copied to
// their exact length at the end.
func buildNLF(g *Graph) *NLF {
	n := g.NumVertices()
	x := &NLF{
		off:    make([]int32, n+1),
		sig:    make([]uint64, n),
		nbr:    make([]Vertex, len(g.adj)),
		single: make([]uint64, (n+63)/64),
		exact:  true,
	}
	var keys []uint64 // label<<32 | neighbour
	for v := 0; v < n; v++ {
		keys = keys[:0]
		for _, w := range g.Neighbors(Vertex(v)) {
			keys = append(keys, uint64(g.labels[w])<<32|uint64(w))
		}
		slices.Sort(keys)
		slot := x.nbr[g.offsets[v]:g.offsets[v+1]]
		single := true
		for i, k := range keys {
			l := Label(k >> 32)
			slot[i] = Vertex(k)
			if i > 0 && Label(keys[i-1]>>32) == l {
				x.cnt[len(x.cnt)-1]++
				single = false
				continue
			}
			x.lab = append(x.lab, l)
			x.cnt = append(x.cnt, 1)
			x.pos = append(x.pos, g.offsets[v]+int64(i))
			x.sig[v] |= 1 << (l % 64)
			x.exact = x.exact && l < 64
		}
		if single {
			x.single[v/64] |= 1 << (v % 64)
		}
		if len(x.lab) > math.MaxInt32 {
			panic("graph: NLF index over 2³¹−1 (vertex, neighbour label) entries")
		}
		x.off[v+1] = int32(len(x.lab))
	}
	x.lab = append(make([]Label, 0, len(x.lab)), x.lab...)
	x.cnt = append(make([]int32, 0, len(x.cnt)), x.cnt...)
	if len(x.pos) > 0 {
		x.pos = append(append(make([]int64, 0, len(x.pos)+1), x.pos...), int64(len(x.nbr)))
	}
	return x
}
