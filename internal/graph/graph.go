// Package graph provides the labeled undirected graph substrate shared by
// every subgraph matching algorithm in this repository.
//
// Graphs are stored in compressed sparse row (CSR) form with sorted
// adjacency lists, which makes edge existence checks O(log d) via binary
// search and set intersections over neighbor lists linear-time merges. A
// label index (label -> sorted vertex list) and label-pair edge statistics
// are computed at build time; they back the LDF filter and the QuickSI
// ordering method respectively. The neighbour-label-frequency index
// behind the NLF filter (nlf.go) is built lazily, on first use.
package graph

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// Vertex identifies a vertex. Vertices of a graph with n vertices are
// 0..n-1.
type Vertex = uint32

// Label is a vertex label drawn from a small label set Sigma.
type Label = uint32

// NoVertex is the sentinel "no vertex" value used throughout the module.
const NoVertex = ^Vertex(0)

// Graph is an immutable undirected vertex-labeled graph in CSR form.
// The zero value is an empty graph; use a Builder or the io helpers to
// construct non-trivial instances. A Graph must not be copied after
// first use (it carries the sync.Once guarding its lazy indexes).
type Graph struct {
	offsets   []int64  // len n+1; adj[offsets[v]:offsets[v+1]] are v's neighbors
	adj       []Vertex // sorted within each vertex's slice
	labels    []Label  // len n
	byLabel   map[Label][]Vertex
	maxDegree int

	// labelPairEdges counts, for each unordered label pair (l1<=l2), the
	// number of edges whose endpoint labels are {l1,l2}. Used by the
	// QuickSI infrequent-edge-first ordering.
	labelPairEdges map[uint64]int64

	// nlf is the neighbour-label-frequency index, built on first use
	// (see NLF); nil until then.
	nlfOnce sync.Once
	nlf     atomic.Pointer[NLF]
}

// NumVertices returns |V|.
func (g *Graph) NumVertices() int { return len(g.labels) }

// NumEdges returns the number of undirected edges |E|.
func (g *Graph) NumEdges() int { return len(g.adj) / 2 }

// Degree returns the degree of v.
func (g *Graph) Degree(v Vertex) int {
	return int(g.offsets[v+1] - g.offsets[v])
}

// MaxDegree returns the maximum vertex degree in the graph.
func (g *Graph) MaxDegree() int { return g.maxDegree }

// AverageDegree returns 2|E| / |V|, or 0 for the empty graph.
func (g *Graph) AverageDegree() float64 {
	if len(g.labels) == 0 {
		return 0
	}
	return float64(len(g.adj)) / float64(len(g.labels))
}

// Neighbors returns the sorted adjacency list of v. The returned slice
// aliases the graph's internal storage and must not be modified.
func (g *Graph) Neighbors(v Vertex) []Vertex {
	return g.adj[g.offsets[v]:g.offsets[v+1]]
}

// Label returns the label of v.
func (g *Graph) Label(v Vertex) Label { return g.labels[v] }

// Labels returns the label slice indexed by vertex. The returned slice
// aliases internal storage and must not be modified.
func (g *Graph) Labels() []Label { return g.labels }

// NumLabels returns the number of distinct labels present in the graph.
func (g *Graph) NumLabels() int { return len(g.byLabel) }

// VerticesWithLabel returns the sorted list of vertices carrying label l.
// The returned slice aliases internal storage and must not be modified.
func (g *Graph) VerticesWithLabel(l Label) []Vertex { return g.byLabel[l] }

// LabelFrequency returns the number of vertices carrying label l.
func (g *Graph) LabelFrequency(l Label) int { return len(g.byLabel[l]) }

// HasEdge reports whether the undirected edge (u, v) exists. It binary
// searches the smaller adjacency list.
func (g *Graph) HasEdge(u, v Vertex) bool {
	if g.Degree(u) > g.Degree(v) {
		u, v = v, u
	}
	ns := g.Neighbors(u)
	i := sort.Search(len(ns), func(i int) bool { return ns[i] >= v })
	return i < len(ns) && ns[i] == v
}

// LabelPairEdgeCount returns the number of edges whose endpoint labels are
// {l1, l2} (unordered).
func (g *Graph) LabelPairEdgeCount(l1, l2 Label) int64 {
	return g.labelPairEdges[labelPairKey(l1, l2)]
}

// EachEdge calls fn once per undirected edge with u < v. Iteration stops
// early if fn returns false.
func (g *Graph) EachEdge(fn func(u, v Vertex) bool) {
	for u := 0; u < len(g.labels); u++ {
		for _, v := range g.Neighbors(Vertex(u)) {
			if v > Vertex(u) {
				if !fn(Vertex(u), v) {
					return
				}
			}
		}
	}
}

// Edges returns all undirected edges with u < v in lexicographic order.
func (g *Graph) Edges() [][2]Vertex {
	out := make([][2]Vertex, 0, g.NumEdges())
	g.EachEdge(func(u, v Vertex) bool {
		out = append(out, [2]Vertex{u, v})
		return true
	})
	return out
}

// String summarizes the graph for debugging.
func (g *Graph) String() string {
	return fmt.Sprintf("graph{|V|=%d |E|=%d |Sigma|=%d d_avg=%.1f d_max=%d}",
		g.NumVertices(), g.NumEdges(), g.NumLabels(), g.AverageDegree(), g.maxDegree)
}

func labelPairKey(l1, l2 Label) uint64 {
	if l1 > l2 {
		l1, l2 = l2, l1
	}
	return uint64(l1)<<32 | uint64(l2)
}
