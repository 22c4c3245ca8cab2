package graph

import (
	"fmt"
	"slices"
)

// Builder accumulates vertices and edges and produces an immutable Graph.
// Duplicate edges and self-loops are rejected at Build time so that every
// Graph in the system satisfies the simple-graph invariant the algorithms
// rely on.
type Builder struct {
	labels   []Label
	edges    [][2]Vertex
	edgeHint int // the edge count NewBuilder was told to expect
}

// maxSizeHint caps what NewBuilder preallocates. The counts are hints,
// and Parse takes them from its input, where a 24-byte t line can claim
// two billion vertices.
const maxSizeHint = 1 << 14

// NewBuilder returns a Builder expecting roughly n vertices and m edges.
func NewBuilder(n, m int) *Builder {
	return &Builder{
		labels:   make([]Label, 0, min(n, maxSizeHint)),
		edges:    make([][2]Vertex, 0, min(m, maxSizeHint)),
		edgeHint: m,
	}
}

// AddVertex appends a vertex with the given label and returns its id.
func (b *Builder) AddVertex(l Label) Vertex {
	b.labels = append(b.labels, l)
	return Vertex(len(b.labels) - 1)
}

// SetLabel overwrites the label of an already-added vertex.
func (b *Builder) SetLabel(v Vertex, l Label) { b.labels[v] = l }

// NumVertices returns the number of vertices added so far.
func (b *Builder) NumVertices() int { return len(b.labels) }

// AddEdge records the undirected edge (u, v). Validation happens at Build.
func (b *Builder) AddEdge(u, v Vertex) {
	if len(b.edges) == cap(b.edges) {
		b.growEdges()
	}
	b.edges = append(b.edges, [2]Vertex{u, v})
}

// growEdges doubles the edge list's room, but stops at the size hint
// when that is nearer: an input whose t line told the truth grows its
// list a few times and ends with no spare room, and one whose t line
// lied never holds more than twice the edges it has. It stays a call,
// so AddEdge is small enough to inline.
//
//go:noinline
func (b *Builder) growEdges() {
	c := max(2*cap(b.edges), 16)
	if b.edgeHint > cap(b.edges) {
		c = min(c, b.edgeHint)
	}
	b.edges = slices.Grow(b.edges, c-len(b.edges))
}

// Build validates the accumulated input and returns the immutable Graph.
// Duplicate edges are deduplicated silently (generators may emit them);
// self-loops and out-of-range endpoints are errors. Build fills the CSR
// arrays only; the label indexes are built when first read.
func (b *Builder) Build() (*Graph, error) {
	n := len(b.labels)
	// An edge is the key u<<32 | v, whose numeric order is the
	// lexicographic order of (u, v). A list whose keys have u < v and
	// ascend strictly — what Write emits — is already normalized,
	// sorted and free of duplicates, and its degrees are counted into
	// offsets[v+1] as it is checked.
	g := &Graph{
		offsets: make([]int64, n+1),
		labels:  append([]Label(nil), b.labels...),
	}
	normal := true
	var prev uint64
	for i, e := range b.edges {
		if int(e[0]) >= n || int(e[1]) >= n {
			return nil, fmt.Errorf("graph: edge (%d,%d) references vertex outside 0..%d", e[0], e[1], n-1)
		}
		if e[0] == e[1] {
			return nil, fmt.Errorf("graph: self-loop at vertex %d", e[0])
		}
		k := uint64(e[0])<<32 | uint64(e[1])
		normal = normal && e[0] < e[1] && (i == 0 || prev < k)
		prev = k
		g.offsets[e[0]+1]++
		g.offsets[e[1]+1]++
	}
	if !normal {
		// Normalize to u < v, sort, dedupe, keep the result as the
		// builder's list, and count its degrees again.
		norm := make([]uint64, len(b.edges))
		for i, e := range b.edges {
			norm[i] = uint64(min(e[0], e[1]))<<32 | uint64(max(e[0], e[1]))
		}
		slices.Sort(norm)
		norm = slices.Compact(norm)
		b.edges = b.edges[:len(norm)]
		clear(g.offsets)
		for i, k := range norm {
			u, v := Vertex(k>>32), Vertex(k)
			b.edges[i] = [2]Vertex{u, v}
			g.offsets[u+1]++
			g.offsets[v+1]++
		}
	}
	g.adj = make([]Vertex, 2*len(b.edges))
	for v := 0; v < n; v++ {
		g.maxDegree = max(g.maxDegree, int(g.offsets[v+1]))
		g.offsets[v+1] += g.offsets[v]
	}
	cursor := make([]int64, n)
	copy(cursor, g.offsets[:n])
	// In (u, v) order every list comes out sorted: w first receives its
	// smaller neighbours u from the edges (u, w), ascending, then its
	// larger ones v from the edges (w, v), ascending.
	for _, e := range b.edges {
		u, v := e[0], e[1]
		g.adj[cursor[u]] = v
		cursor[u]++
		g.adj[cursor[v]] = u
		cursor[v]++
	}
	return g, nil
}

// MustBuild is Build that panics on error; intended for tests and
// hand-constructed literals where the input is known valid.
func (b *Builder) MustBuild() *Graph {
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}

// FromEdges builds a graph from a label slice (indexed by vertex) and an
// edge list.
func FromEdges(labels []Label, edges [][2]Vertex) (*Graph, error) {
	b := NewBuilder(len(labels), len(edges))
	for _, l := range labels {
		b.AddVertex(l)
	}
	for _, e := range edges {
		b.AddEdge(e[0], e[1])
	}
	return b.Build()
}

// MustFromEdges is FromEdges that panics on error.
func MustFromEdges(labels []Label, edges [][2]Vertex) *Graph {
	g, err := FromEdges(labels, edges)
	if err != nil {
		panic(err)
	}
	return g
}
