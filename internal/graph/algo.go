package graph

// Structural helpers used by filtering and ordering methods: connectivity,
// BFS spanning trees, 2-core decomposition, and induced subgraph
// extraction.

// IsConnected reports whether g is connected. The empty graph is
// considered connected. The graph is immutable, so the search runs once
// and later calls read its verdict.
func (g *Graph) IsConnected() bool {
	g.connOnce.Do(func() { g.connected = g.searchConnected() })
	return g.connected
}

// searchConnected is IsConnected's depth-first search from vertex 0.
func (g *Graph) searchConnected() bool {
	n := g.NumVertices()
	if n == 0 {
		return true
	}
	seen := make([]bool, n)
	stack := []Vertex{0}
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, w := range g.Neighbors(v) {
			if !seen[w] {
				seen[w] = true
				count++
				stack = append(stack, w)
			}
		}
	}
	return count == n
}

// BFSTree is a breadth-first spanning tree of a connected graph rooted at
// Root. Order is the BFS visit order (Order[0] == Root); Parent[v] is the
// tree parent (NoVertex for the root); Depth[v] is the BFS level.
type BFSTree struct {
	Root   Vertex
	Order  []Vertex
	Parent []Vertex
	Depth  []int
}

// NewBFSTree runs a BFS from root. Neighbors are visited in sorted order,
// so the tree is deterministic.
func NewBFSTree(g *Graph, root Vertex) *BFSTree {
	n := g.NumVertices()
	t := &BFSTree{
		Root:   root,
		Order:  make([]Vertex, 0, n),
		Parent: make([]Vertex, n),
		Depth:  make([]int, n),
	}
	for i := range t.Parent {
		t.Parent[i] = NoVertex
		t.Depth[i] = -1
	}
	t.Depth[root] = 0
	t.Order = append(t.Order, root)
	for head := 0; head < len(t.Order); head++ {
		v := t.Order[head]
		for _, w := range g.Neighbors(v) {
			if t.Depth[w] < 0 {
				t.Depth[w] = t.Depth[v] + 1
				t.Parent[w] = v
				t.Order = append(t.Order, w)
			}
		}
	}
	return t
}

// MaxDepth returns the deepest BFS level in the tree.
func (t *BFSTree) MaxDepth() int {
	max := 0
	for _, v := range t.Order {
		if t.Depth[v] > max {
			max = t.Depth[v]
		}
	}
	return max
}

// IsTreeEdge reports whether (u, v) is a tree edge of t in either
// direction.
func (t *BFSTree) IsTreeEdge(u, v Vertex) bool {
	return t.Parent[u] == v || t.Parent[v] == u
}

// Children returns, for each vertex, its tree children in BFS order.
func (t *BFSTree) Children() [][]Vertex {
	ch := make([][]Vertex, len(t.Parent))
	for _, v := range t.Order {
		if p := t.Parent[v]; p != NoVertex {
			ch[p] = append(ch[p], v)
		}
	}
	return ch
}

// TwoCore returns a boolean slice marking the vertices in the 2-core of g:
// the maximal subgraph in which every vertex has degree >= 2. Query
// vertices inside the 2-core are the paper's "core vertices".
func (g *Graph) TwoCore() []bool {
	n := g.NumVertices()
	deg := make([]int, n)
	inCore := make([]bool, n)
	queue := make([]Vertex, 0, n)
	for v := 0; v < n; v++ {
		deg[v] = g.Degree(Vertex(v))
		inCore[v] = true
		if deg[v] < 2 {
			queue = append(queue, Vertex(v))
			inCore[v] = false
		}
	}
	for len(queue) > 0 {
		v := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for _, w := range g.Neighbors(v) {
			if inCore[w] {
				deg[w]--
				if deg[w] < 2 {
					inCore[w] = false
					queue = append(queue, w)
				}
			}
		}
	}
	return inCore
}

// InducedSubgraph extracts g[verts], the vertex-induced subgraph on the
// given vertex set. It returns the subgraph plus the mapping from new
// vertex ids (0..len(verts)-1) back to the original ids, in the order
// given. Duplicate vertices in verts are an error at Build time only if
// they produce self-loops; callers should pass distinct vertices.
func (g *Graph) InducedSubgraph(verts []Vertex) (*Graph, []Vertex) {
	idx := make(map[Vertex]Vertex, len(verts))
	b := NewBuilder(len(verts), len(verts)*2)
	orig := make([]Vertex, len(verts))
	for i, v := range verts {
		idx[v] = Vertex(i)
		b.AddVertex(g.Label(v))
		orig[i] = v
	}
	for i, v := range verts {
		for _, w := range g.Neighbors(v) {
			j, ok := idx[w]
			if ok && Vertex(i) < j {
				b.AddEdge(Vertex(i), j)
			}
		}
	}
	return b.MustBuild(), orig
}

// DegreesDescending returns the sorted-descending degree sequence of the
// neighbors of v. Glasgow's candidate initialization compares neighbor
// degree sequences.
func (g *Graph) NeighborDegreesDescending(v Vertex, buf []int) []int {
	buf = buf[:0]
	for _, w := range g.Neighbors(v) {
		buf = append(buf, g.Degree(w))
	}
	// insertion sort descending; neighbor lists are short for queries and
	// this avoids an interface-based sort in a hot path.
	for i := 1; i < len(buf); i++ {
		x := buf[i]
		j := i - 1
		for j >= 0 && buf[j] < x {
			buf[j+1] = buf[j]
			j--
		}
		buf[j+1] = x
	}
	return buf
}
