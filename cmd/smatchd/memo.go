package main

import (
	"bytes"
	"sync"

	"subgraphmatching/internal/graph"
)

// memoMaxText is the longest query text the memo keeps: a longer one is
// parsed on every request, as without the memo. Query graphs are small
// by nature (the paper's largest has 32 vertices, well under 2 KiB of
// text), so the bound only keeps an unusual body from pinning its bytes.
// With it the memo holds at most entries × memoMaxText bytes of text
// beside the graphs.
const memoMaxText = 8 << 10

// queryMemo maps the exact text of a query graph to the graph it parses
// to, so a repeated query — every request of a warm workload — skips
// the parse, and, since a graph keeps its fingerprint and connectivity
// once computed, the plan-cache key and the connectivity check with it.
// It is an LRU bounded by the plan cache's entry count: a query whose
// plan can be cached can have its graph memoized, and a daemon that
// caches no plans memoizes no queries. Only graphs that parse and pass
// the query's own checks (non-empty, connected) are kept; a text that
// fails is parsed again each time, so an error is never served from
// the memo. The kept graphs are shared by concurrent requests, which
// only read them. Safe for concurrent use; a nil memo parses every
// text.
type queryMemo struct {
	mu      sync.Mutex
	max     int
	entries map[string]*memoEntry
	// ring is the sentinel of the recency list: ring.next is the most
	// recently used entry, ring.prev the least.
	ring memoEntry
}

type memoEntry struct {
	text       string
	g          *graph.Graph
	prev, next *memoEntry
}

// newQueryMemo returns a memo of at most max entries, nil when max <= 0.
func newQueryMemo(max int) *queryMemo {
	if max <= 0 {
		return nil
	}
	m := &queryMemo{max: max, entries: make(map[string]*memoEntry, max)}
	m.ring.prev, m.ring.next = &m.ring, &m.ring
	return m
}

// parse returns the graph text parses to, and graph.Parse's error for a
// text that does not.
func (m *queryMemo) parse(text []byte) (*graph.Graph, error) {
	if m == nil {
		return graph.Parse(bytes.NewReader(text))
	}
	m.mu.Lock()
	if e := m.entries[string(text)]; e != nil {
		m.unlink(e)
		m.pushFront(e)
		m.mu.Unlock()
		return e.g, nil
	}
	m.mu.Unlock()
	g, err := graph.Parse(bytes.NewReader(text))
	if err != nil || len(text) > memoMaxText || g.NumVertices() == 0 || !g.IsConnected() {
		return g, err
	}
	return m.keep(string(text), g), nil
}

// keep inserts text's graph, evicting the least recently used entry
// when the memo is full, and returns the graph the memo holds for text:
// g, or the one a concurrent miss on the same text kept first.
func (m *queryMemo) keep(text string, g *graph.Graph) *graph.Graph {
	m.mu.Lock()
	defer m.mu.Unlock()
	if e := m.entries[text]; e != nil {
		return e.g
	}
	if len(m.entries) >= m.max {
		old := m.ring.prev
		m.unlink(old)
		delete(m.entries, old.text)
	}
	e := &memoEntry{text: text, g: g}
	m.entries[text] = e
	m.pushFront(e)
	return g
}

func (m *queryMemo) unlink(e *memoEntry) {
	e.prev.next, e.next.prev = e.next, e.prev
}

func (m *queryMemo) pushFront(e *memoEntry) {
	e.prev, e.next = &m.ring, m.ring.next
	m.ring.next.prev = e
	m.ring.next = e
}
