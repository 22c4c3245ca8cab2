package graph

import (
	"math"
	"math/bits"
	"slices"
)

// NLF is the neighbour-label-frequency index of a graph: for every
// vertex v the distinct labels of N(v) in ascending order, each with
// the number of neighbours carrying it. Vertex v owns entries
// off[v]:off[v+1], so the NLF filter's "does v have at least k
// neighbours labelled l" (CoveredBy) is a walk over two short sorted
// lists instead of a recount of L(N(v)) per check.
//
// Beside the lists sits a 64-bit label-presence signature per vertex:
// bit l%64 is set iff some neighbour carries label l. A vertex whose
// signature misses a bit of the requirement's cannot pass the count
// check, so most rejections are one AND-NOT on a dense array and never
// touch the lists; labels that collide mod 64 only make the signature
// say "maybe". When every neighbour label of the graph is below 64
// nothing collides and the signature is exact (Exact).
//
// The index also holds N(v) grouped by label — the label runs: the
// neighbours carrying entry e's label, in ascending order. Every
// structural filter rule and the candidate-space build ask for "the
// neighbours of v that carry label l" (the only ones that can be
// candidates of a query vertex labelled l), and Run answers without
// reading the rest of N(v). v's runs fill exactly the slot its sorted
// adjacency list fills in the graph, base[v]:base[v+1] of nbr, where
// base is the graph's own offsets. So an entry holds only where its run
// ends, relative to that slot: entry e's run is
// nbr[base[v]+start : base[v]+end[e]], start being end[e-1], or 0 for
// v's first entry, and its count is end[e] − start. On an exact index
// the entries hold no labels either: they ascend, and label l is
// signature bit l, so entry k of v is the k-th set bit of sig[v].
// Otherwise lab holds each entry's label, binary-searched by Run.
//
// Size: Σ_v min(d(v), |Σ|) entries of 4 bytes (8 with their labels on
// an index that is not exact), 2|E| grouped neighbours of 4 bytes, and
// 12 bytes plus one bit per vertex; base is shared with the graph and
// not counted. Entry offsets are int32, so the index holds at most
// 2³¹−1 entries, and run ends are uint32, so no degree may exceed
// 2³²−1; the build enforces both.
type NLF struct {
	off    []int32
	end    []uint32 // entry e's run ends at nbr[base[v]+end[e]]
	lab    []Label  // entry e's label; nil on an exact index
	sig    []uint64
	nbr    []Vertex
	base   []int64  // the graph's offsets: v's slot of nbr starts at base[v]
	single []uint64 // bit v: each label of N(v) occurs once
}

// Signature returns v's label-presence signature: bit l%64 is set iff
// some neighbour of v carries label l. If Signature(u) of a requirement
// has a bit that Signature(v) lacks, v has no neighbour with one of the
// labels u needs.
func (x *NLF) Signature(v Vertex) uint64 { return x.sig[v] }

// Exact reports whether every neighbour label of the graph is below 64:
// then a signature bit stands for one label, and a label's entry is
// found from the signature alone.
func (x *NLF) Exact() bool { return x.lab == nil }

// PresenceOnly reports whether each label of N(v) occurs once. As a
// requirement such a vertex asks only that its labels be present, so
// between two exact indexes its NLF check is the signature test.
func (x *NLF) PresenceOnly(v Vertex) bool { return x.single[v/64]&(1<<(v%64)) != 0 }

// entry returns v's entry for label l, and whether v has a neighbour
// labelled l. On an exact index the entry is the rank of bit l among
// the signature's set bits, one popcount; otherwise it is
// binary-searched among v's labels.
func (x *NLF) entry(v Vertex, l Label) (int32, bool) {
	lo := x.off[v]
	if x.lab == nil {
		if l >= 64 {
			return 0, false
		}
		bit := uint64(1) << l
		return lo + int32(bits.OnesCount64(x.sig[v]&(bit-1))), x.sig[v]&bit != 0
	}
	i, ok := slices.BinarySearch(x.lab[lo:x.off[v+1]], l)
	return lo + int32(i), ok
}

// start returns where the run of v's entry e starts in v's slot.
func (x *NLF) start(v Vertex, e int32) uint32 {
	if e == x.off[v] {
		return 0
	}
	return x.end[e-1]
}

// Run returns the neighbours of v that carry label l, in ascending
// order (nil when there are none). The slice aliases the index and must
// not be modified.
func (x *NLF) Run(v Vertex, l Label) []Vertex {
	e, ok := x.entry(v, l)
	if !ok {
		return nil
	}
	b := x.base[v]
	return x.nbr[b+int64(x.start(v, e)) : b+int64(x.end[e])]
}

// Count returns how many neighbours of v carry label l.
func (x *NLF) Count(v Vertex, l Label) int {
	e, ok := x.entry(v, l)
	if !ok {
		return 0
	}
	return int(x.end[e] - x.start(v, e))
}

// CoveredBy reports whether v, a vertex of the graph y indexes, has for
// every label of N(u) at least as many neighbours carrying it as u has:
// the NLF filter's count condition. u's labels come from its entries
// (from its signature's set bits when x is exact); each is looked up in
// y by a popcount rank when y is exact, and otherwise by a merge with
// v's sorted labels.
func (x *NLF) CoveredBy(u Vertex, y *NLF, v Vertex) bool {
	ulo, uhi, vlo, vhi := x.off[u], x.off[u+1], y.off[v], y.off[v+1]
	needs, haves := x.end[ulo:uhi], y.end[vlo:vhi]
	var needLabs, haveLabs []Label
	if x.lab != nil {
		needLabs = x.lab[ulo:uhi]
	}
	if y.lab != nil {
		haveLabs = y.lab[vlo:vhi]
	}
	need, have := x.sig[u], y.sig[v]
	var from uint32 // where u's current run starts
	j := 0
	for i, end := range needs {
		var l Label
		if x.lab == nil {
			l = Label(bits.TrailingZeros64(need))
			need &= need - 1
		} else {
			l = needLabs[i]
		}
		var f int
		if y.lab == nil {
			if l >= 64 || have&(1<<l) == 0 {
				return false
			}
			f = bits.OnesCount64(have & (1<<l - 1))
		} else {
			for j < len(haveLabs) && haveLabs[j] < l {
				j++
			}
			if j == len(haveLabs) || haveLabs[j] != l {
				return false
			}
			f, j = j, j+1
		}
		got := haves[f]
		if f > 0 {
			got -= haves[f-1]
		}
		if got < end-from {
			return false
		}
		from = end
	}
	return true
}

// Bytes returns the heap footprint of the index arrays.
func (x *NLF) Bytes() int64 {
	return int64(len(x.off)+len(x.end)+len(x.lab)+len(x.nbr))*4 + int64(len(x.sig)+len(x.single))*8
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

// buildNLF groups each neighbourhood by label with a counting scatter,
// the count → prefix-sum → fill of a counting sort, keyed by the dense
// rank of a label among the graph's distinct labels: the count scratch
// is as long as the label alphabet, however large its values. Per
// vertex it counts N(v)'s ranks, walks the ranks present in ascending
// order to turn the counts into run starts — writing each run end,
// signature bit and, on an index that is not exact, label as it goes —
// and scatters N(v) into its slot. The adjacency is id-sorted and the
// scatter stable, so each run ascends. The ranks present are bits of a
// bitmap over the ranks, read out word by word: N(v) notes each word it
// sets first, and only those words are sorted, so a graph of at most 64
// labels sorts nothing and a larger alphabet sorts at most one word per
// distinct label of N(v), never the whole bitmap. The only other sort
// is of the distinct labels, once.
//
// The entry arrays are allocated once, at the Σ_v min(d(v), |Σ|)
// entries v can have at most, and copied to their exact length at the
// end, since the index stays resident for the graph's lifetime: the
// build holds up to twice the arrays' final size while it runs, which
// costs less time than a pass over the adjacency counting the entries
// (EXPERIMENTS.md, "Graph ingest").
func buildNLF(g *Graph) *NLF {
	n := g.NumVertices()
	x := &NLF{
		off:    make([]int32, n+1),
		sig:    make([]uint64, n),
		nbr:    make([]Vertex, len(g.adj)),
		base:   g.offsets,
		single: make([]uint64, (n+63)/64),
	}
	pools := g.labelIndex()
	labels := make([]Label, 0, len(pools))
	for l := range pools {
		labels = append(labels, l)
	}
	slices.Sort(labels)
	rank := make([]uint32, n)
	exact := true // no neighbour label is 64 or more
	for r, l := range labels {
		for _, v := range pools[l] {
			rank[v] = uint32(r)
			exact = exact && (l < 64 || g.offsets[v+1] == g.offsets[v])
		}
	}
	cnt := make([]uint32, len(labels))             // per rank: its count, then where its run is filled to
	present := make([]uint64, (len(labels)+63)/64) // bit r: rank r occurs in N(v)
	var words []uint32                             // the words of present that N(v) sets, in the order it sets them
	var ranks []uint32                             // the ranks of N(v), ascending
	room := 0
	for v := 0; v < n; v++ {
		room += min(g.Degree(Vertex(v)), len(labels))
	}
	end := make([]uint32, 0, room)
	var lab []Label
	if !exact {
		lab = make([]Label, 0, room)
	}
	for v := 0; v < n; v++ {
		ns := g.Neighbors(Vertex(v))
		if uint64(len(ns)) > math.MaxUint32 {
			panic("graph: NLF index over a vertex of degree 2³² or more")
		}
		for _, w := range ns {
			r := rank[w]
			cnt[r]++
			if present[r/64] == 0 {
				words = append(words, r/64)
			}
			present[r/64] |= 1 << (r % 64)
		}
		if len(words) > 1 {
			slices.Sort(words)
		}
		ranks = ranks[:0]
		for _, i := range words {
			for word := present[i]; word != 0; word &= word - 1 {
				ranks = append(ranks, i*64+uint32(bits.TrailingZeros64(word)))
			}
			present[i] = 0
		}
		words = words[:0]
		var at uint32
		for _, r := range ranks {
			c := cnt[r]
			cnt[r] = at
			at += c
			end = append(end, at)
			x.sig[v] |= 1 << (labels[r] % 64)
			if !exact {
				lab = append(lab, labels[r])
			}
		}
		slot := x.nbr[g.offsets[v]:g.offsets[v+1]]
		for _, w := range ns {
			r := rank[w]
			slot[cnt[r]] = w
			cnt[r]++
		}
		for _, r := range ranks {
			cnt[r] = 0
		}
		if len(ranks) == len(ns) {
			x.single[v/64] |= 1 << (v % 64)
		}
		if len(end) > math.MaxInt32 {
			panic("graph: NLF index over 2³¹−1 (vertex, neighbour label) entries")
		}
		x.off[v+1] = int32(len(end))
	}
	x.end, x.lab = slices.Clone(end), slices.Clone(lab)
	return x
}
