package graph

// A graph keeps free lists of the |V|-sized scratch that requests over
// it use and drop: the visited marks of searches (Marks), the
// membership bitmaps of filters and candidate-space builds (Bitmap) and
// the row buffers of both (Buffer). A request that takes its scratch
// here neither allocates nor zeroes it once the graph has served as
// many requests at once before. Each list is bounded; beyond its bound
// a returned array is left to the collector. The lists hang off the
// graph, not a process-wide pool keyed by size, so two graphs of
// different |V| never trade arrays.
const (
	maxIdleMarks   = 8
	maxIdleBitmaps = 64 // a filter holds one per query vertex
	maxIdleBuffers = 8
)

// Marks returns NumVertices() booleans, all false, for one search over
// the graph to mark the vertices it has mapped: an array a finished
// search handed back with PutMarks, or a new one. Safe for concurrent
// use.
func (g *Graph) Marks() []bool {
	if m := take(g, &g.idleMarks); m != nil {
		return m
	}
	return make([]bool, g.NumVertices())
}

// PutMarks hands back an array Marks returned, every entry false again,
// for the next search to reuse. Safe for concurrent use.
func (g *Graph) PutMarks(m []bool) { park(g, &g.idleMarks, m, maxIdleMarks) }

// Bitmap returns a bitmap over the graph's vertices — bit v of word
// v/64 — with every bit clear: one a finished request handed back with
// PutBitmap, or a new one. Safe for concurrent use.
func (g *Graph) Bitmap() []uint64 {
	if b := take(g, &g.idleBitmaps); b != nil {
		return b
	}
	return make([]uint64, (g.NumVertices()+63)/64)
}

// PutBitmap hands back a bitmap Bitmap returned, every bit clear again.
// A returner clears the bits it set, not the whole array. Safe for
// concurrent use.
func (g *Graph) PutBitmap(b []uint64) { park(g, &g.idleBitmaps, b, maxIdleBitmaps) }

// Buffer returns an empty row buffer whose capacity a finished request
// left behind (none the first time): its contents are undefined, and a
// caller that needs more room grows it. Safe for concurrent use.
func (g *Graph) Buffer() []uint32 { return take(g, &g.idleBuffers)[:0] }

// PutBuffer hands back a buffer Buffer returned, or the larger one it
// was grown into, for the next request to reuse. Safe for concurrent
// use.
func (g *Graph) PutBuffer(b []uint32) {
	if cap(b) > 0 {
		park(g, &g.idleBuffers, b[:0], maxIdleBuffers)
	}
}

// take pops the most recently parked array of a free list, or returns
// nil when the list is empty.
func take[T any](g *Graph, list *[][]T) []T {
	g.scratchMu.Lock()
	defer g.scratchMu.Unlock()
	n := len(*list)
	if n == 0 {
		return nil
	}
	a := (*list)[n-1]
	(*list)[n-1] = nil
	*list = (*list)[:n-1]
	return a
}

// park pushes a onto a free list that holds fewer than bound arrays.
func park[T any](g *Graph, list *[][]T, a []T, bound int) {
	g.scratchMu.Lock()
	if len(*list) < bound {
		*list = append(*list, a)
	}
	g.scratchMu.Unlock()
}
