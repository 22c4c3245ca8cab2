package graph

// maxIdleMarks bounds a graph's free list of visited marks: the arrays
// of up to this many searches that ran at once are kept for the next
// ones; beyond it a returned array is left to the collector.
const maxIdleMarks = 8

// Marks returns NumVertices() booleans, all false, for one search over
// the graph to mark the vertices it has mapped: an array a finished
// search handed back with PutMarks, or a new one. A search that takes
// its marks here neither allocates nor zeroes a |V|-sized array once
// the graph has served as many searches at once before. Safe for
// concurrent use.
func (g *Graph) Marks() []bool {
	var m []bool
	g.marksMu.Lock()
	if n := len(g.idleMarks); n > 0 {
		m, g.idleMarks[n-1] = g.idleMarks[n-1], nil
		g.idleMarks = g.idleMarks[:n-1]
	}
	g.marksMu.Unlock()
	if m == nil {
		m = make([]bool, g.NumVertices())
	}
	return m
}

// PutMarks hands back an array Marks returned, every entry false again,
// for the next search to reuse. Safe for concurrent use.
func (g *Graph) PutMarks(m []bool) {
	g.marksMu.Lock()
	if len(g.idleMarks) < maxIdleMarks {
		g.idleMarks = append(g.idleMarks, m)
	}
	g.marksMu.Unlock()
}
