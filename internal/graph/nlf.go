package graph

import "slices"

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
//
// Size: Σ_v min(d(v), |Σ|) entries of 8 bytes plus 12 bytes per vertex.
// Offsets are int32, so the index holds at most 2³¹−1 entries.
type NLF struct {
	off []int32
	lab []Label
	cnt []int32
	sig []uint64
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

// Bytes returns the heap footprint of the index arrays.
func (x *NLF) Bytes() int64 {
	return int64(len(x.off))*4 + int64(len(x.lab))*4 + int64(len(x.cnt))*4 + int64(len(x.sig))*8
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
// this graph (today the NLF index): 0 until first use.
func (g *Graph) IndexBytes() int64 {
	if x := g.nlf.Load(); x != nil {
		return x.Bytes()
	}
	return 0
}

// buildNLF sorts each neighbourhood's labels and run-length encodes
// them. The index stays resident for the graph's lifetime, so the
// arrays grown while building are copied to their exact length at the
// end.
func buildNLF(g *Graph) *NLF {
	n := g.NumVertices()
	x := &NLF{off: make([]int32, n+1), sig: make([]uint64, n)}
	var buf []Label
	for v := 0; v < n; v++ {
		buf = buf[:0]
		for _, w := range g.Neighbors(Vertex(v)) {
			buf = append(buf, g.labels[w])
		}
		slices.Sort(buf)
		for i, l := range buf {
			if i == 0 || buf[i-1] != l {
				x.lab = append(x.lab, l)
				x.cnt = append(x.cnt, 0)
				x.sig[v] |= 1 << (l % 64)
			}
			x.cnt[len(x.cnt)-1]++
		}
		x.off[v+1] = int32(len(x.lab))
	}
	x.lab = append(make([]Label, 0, len(x.lab)), x.lab...)
	x.cnt = append(make([]int32, 0, len(x.cnt)), x.cnt...)
	return x
}
