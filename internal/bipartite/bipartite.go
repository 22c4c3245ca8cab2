// Package bipartite implements maximum bipartite matching via Kuhn's
// augmenting-path algorithm.
//
// GraphQL's global refinement (the pseudo subgraph isomorphism test of
// Section 3.1.1) needs a semi-perfect matching check: given candidate v
// for query vertex u, build the bipartite graph between N(u) and N(v) and
// verify that every vertex of N(u) can be matched. Observation 3.2 in the
// paper is exactly this test.
package bipartite

// Matcher computes maximum matchings on bipartite graphs with a fixed
// number of left vertices. It is reusable across calls to avoid
// allocation in the refinement loop; it is not safe for concurrent use.
//
// Right vertices are identified by small dense ids: the per-right state
// is a slice indexed by id (grown by AddEdge), so memory is proportional
// to the largest id ever added. An entry counts only while its stamp
// equals the current epoch, which makes starting a new matching or a
// new augmenting search one increment instead of a clear.
type Matcher struct {
	adj   [][]int32 // adjacency: left vertex -> right vertices
	right []rightState

	matchEpoch uint32 // stamps rightState.ownedAt
	visitEpoch uint32 // stamps rightState.seenAt
}

type rightState struct {
	owner   int32  // left vertex matched to this right vertex
	ownedAt uint32 // owner is valid iff ownedAt == matchEpoch
	seenAt  uint32 // visited in the current search iff seenAt == visitEpoch
}

// NewMatcher returns a Matcher for up to maxLeft left vertices.
func NewMatcher(maxLeft int) *Matcher {
	return &Matcher{adj: make([][]int32, maxLeft)}
}

// Reset prepares the matcher for a new bipartite graph with nLeft left
// vertices.
func (m *Matcher) Reset(nLeft int) {
	if nLeft > len(m.adj) {
		m.adj = make([][]int32, nLeft)
	}
	for i := 0; i < nLeft; i++ {
		m.adj[i] = m.adj[i][:0]
	}
}

// AddEdge records an edge from left vertex l (0-based) to right vertex r
// (a non-negative dense id, see Matcher).
func (m *Matcher) AddEdge(l int, r int32) {
	m.adj[l] = append(m.adj[l], r)
	if grow := int(r) + 1 - len(m.right); grow > 0 {
		m.right = append(m.right, make([]rightState, grow)...)
	}
}

// HasSemiPerfectMatching reports whether all nLeft left vertices can be
// matched simultaneously.
func (m *Matcher) HasSemiPerfectMatching(nLeft int) bool {
	for l := 0; l < nLeft; l++ {
		// Fast fail: a left vertex with no edges can never match.
		if len(m.adj[l]) == 0 {
			return false
		}
	}
	m.newMatching()
	for l := 0; l < nLeft; l++ {
		m.newSearch()
		if !m.augment(l) {
			return false
		}
	}
	return true
}

// MaximumMatchingSize returns the size of a maximum matching over the
// first nLeft left vertices.
func (m *Matcher) MaximumMatchingSize(nLeft int) int {
	m.newMatching()
	size := 0
	for l := 0; l < nLeft; l++ {
		m.newSearch()
		if m.augment(l) {
			size++
		}
	}
	return size
}

// newMatching forgets every owner. Stamp 0 is reserved for "never", so
// when the epoch wraps the stamps are cleared and counting restarts.
func (m *Matcher) newMatching() {
	m.matchEpoch++
	if m.matchEpoch == 0 {
		for i := range m.right {
			m.right[i].ownedAt = 0
		}
		m.matchEpoch = 1
	}
}

// newSearch forgets every visited mark, wrapping like newMatching.
func (m *Matcher) newSearch() {
	m.visitEpoch++
	if m.visitEpoch == 0 {
		for i := range m.right {
			m.right[i].seenAt = 0
		}
		m.visitEpoch = 1
	}
}

func (m *Matcher) augment(l int) bool {
	for _, r := range m.adj[l] {
		rs := &m.right[r]
		if rs.seenAt == m.visitEpoch {
			continue
		}
		rs.seenAt = m.visitEpoch
		if rs.ownedAt != m.matchEpoch || m.augment(int(rs.owner)) {
			rs.owner, rs.ownedAt = int32(l), m.matchEpoch
			return true
		}
	}
	return false
}
