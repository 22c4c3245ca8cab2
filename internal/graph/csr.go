package graph

import (
	"fmt"
	"slices"
)

// CSR exposes the graph's raw compressed-sparse-row arrays: offsets
// (len n+1), the concatenated sorted adjacency (len 2|E|), and the
// per-vertex labels (len n). The returned slices alias internal storage
// and must not be modified — they exist so the snapshot encoder in
// internal/store can serialize the canonical representation without a
// copy, and so FromCSR can round-trip it.
func (g *Graph) CSR() (offsets []int64, adj []Vertex, labels []Label) {
	return g.offsets, g.adj, g.labels
}

// LabelPairCounts returns the label-pair edge statistics as parallel
// slices sorted by key (key = l1<<32|l2 with l1 <= l2). The QuickSI
// ordering reads these counts; persisting them alongside the CSR lets a
// snapshot load skip the O(|E|) recount.
func (g *Graph) LabelPairCounts() (keys []uint64, counts []int64) {
	pairs := g.labelPairs()
	keys = make([]uint64, 0, len(pairs))
	for k := range pairs {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	counts = make([]int64, len(keys))
	for i, k := range keys {
		counts[i] = pairs[k]
	}
	return keys, counts
}

// FromCSR constructs a Graph directly from CSR arrays, validating every
// structural invariant the algorithms rely on: offsets monotone from 0
// to len(adj), adjacency strictly sorted per vertex (no duplicates), no
// self-loops, and all ids in range. The provided slices are adopted
// without copying — they may alias read-only storage such as an mmap'd
// snapshot section and must not be modified afterwards.
//
// pairKeys/pairCounts, when non-nil, supply the label-pair edge
// statistics (as produced by LabelPairCounts) and are cross-checked
// against the edge count; nil leaves them to be counted from the
// adjacency on first use, as for a built graph.
func FromCSR(offsets []int64, adj []Vertex, labels []Label, pairKeys []uint64, pairCounts []int64) (*Graph, error) {
	n := len(labels)
	if len(offsets) != n+1 {
		return nil, fmt.Errorf("graph: csr: %d labels need %d offsets, got %d", n, n+1, len(offsets))
	}
	if offsets[0] != 0 {
		return nil, fmt.Errorf("graph: csr: offsets[0] = %d, want 0", offsets[0])
	}
	if offsets[n] != int64(len(adj)) {
		return nil, fmt.Errorf("graph: csr: offsets[%d] = %d, want adjacency length %d", n, offsets[n], len(adj))
	}
	if len(adj)%2 != 0 {
		return nil, fmt.Errorf("graph: csr: odd adjacency length %d", len(adj))
	}
	g := &Graph{
		offsets: offsets,
		adj:     adj,
		labels:  labels,
	}
	for v := 0; v < n; v++ {
		d := offsets[v+1] - offsets[v]
		if d < 0 {
			return nil, fmt.Errorf("graph: csr: offsets decrease at vertex %d", v)
		}
		if int(d) > g.maxDegree {
			g.maxDegree = int(d)
		}
		ns := adj[offsets[v]:offsets[v+1]]
		for i, w := range ns {
			if int(w) >= n {
				return nil, fmt.Errorf("graph: csr: vertex %d lists neighbor %d outside 0..%d", v, w, n-1)
			}
			if w == Vertex(v) {
				return nil, fmt.Errorf("graph: csr: self-loop at vertex %d", v)
			}
			if i > 0 && ns[i-1] >= w {
				return nil, fmt.Errorf("graph: csr: adjacency of vertex %d not strictly sorted at position %d", v, i)
			}
		}
	}
	if pairKeys != nil || pairCounts != nil {
		if len(pairKeys) != len(pairCounts) {
			return nil, fmt.Errorf("graph: csr: %d pair keys vs %d counts", len(pairKeys), len(pairCounts))
		}
		var total int64
		pairs := make(map[uint64]int64, len(pairKeys))
		for i, k := range pairKeys {
			if i > 0 && pairKeys[i-1] >= k {
				return nil, fmt.Errorf("graph: csr: label-pair keys not strictly sorted at %d", i)
			}
			l1, l2 := Label(k>>32), Label(k&0xffffffff)
			if l1 > l2 {
				return nil, fmt.Errorf("graph: csr: label-pair key %d not normalized (l1 > l2)", i)
			}
			if pairCounts[i] <= 0 {
				return nil, fmt.Errorf("graph: csr: non-positive label-pair count at %d", i)
			}
			pairs[k] = pairCounts[i]
			total += pairCounts[i]
		}
		if total != int64(g.NumEdges()) {
			return nil, fmt.Errorf("graph: csr: label-pair counts sum to %d, want |E| = %d", total, g.NumEdges())
		}
		g.labelPairOnce.Do(func() { g.labelPairEdges = pairs })
	}
	return g, nil
}
