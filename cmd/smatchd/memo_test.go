package main

import (
	"slices"
	"strings"
	"sync"
	"testing"

	"subgraphmatching/internal/graph"
)

// memoVariants are the texts a FuzzQueryMemo run interleaves, built from
// its base text: the text itself, the same graph spelled with other
// white space and comments (a different text, so a different entry),
// cut short, and texts that fail to parse or that the memo must not keep
// (empty, disconnected).
func memoVariants(base string) []string {
	lines := strings.Split(base, "\n")
	return []string{
		base,
		strings.ReplaceAll(base, "\n", "\r\n"),
		base + "\n\n",
		"# a comment\n" + base,
		strings.Join(lines, "  \n"),
		strings.ReplaceAll(base, " ", "\t "),
		base[:len(base)/2],
		"",
		"t 2 1\nv 0 0\nv 0 1\n",
		"t 2 0\nv 0 1\nv 1 1\n",
		"t 3 2\nv 0 0\nv 1 1\nv 2 0\ne 0 1\ne 1 2\n",
	}
}

// checkMemoParse holds one memo answer to a fresh graph.Parse of the
// same text: the same error text, or a graph with the same fingerprint,
// labels and adjacency.
func checkMemoParse(t *testing.T, m *queryMemo, text string) {
	t.Helper()
	got, err := m.parse([]byte(text))
	want, wantErr := graph.Parse(strings.NewReader(text))
	switch {
	case (err == nil) != (wantErr == nil):
		t.Fatalf("%q: memo error %v, Parse error %v", text, err, wantErr)
	case err != nil:
		if err.Error() != wantErr.Error() {
			t.Fatalf("%q: memo error %q, Parse error %q", text, err, wantErr)
		}
		if got != nil {
			t.Fatalf("%q: memo returned a graph beside its error", text)
		}
		m.mu.Lock()
		kept := m.entries[text] != nil
		m.mu.Unlock()
		if kept {
			t.Fatalf("%q: a text that fails to parse is in the memo", text)
		}
		return
	}
	if graph.FingerprintOf(got) != graph.FingerprintOf(want) {
		t.Fatalf("%q: memo fingerprint differs from Parse's", text)
	}
	n := want.NumVertices()
	if got.NumVertices() != n || got.NumEdges() != want.NumEdges() {
		t.Fatalf("%q: memo %v, Parse %v", text, got, want)
	}
	for v := range graph.Vertex(n) {
		if got.Label(v) != want.Label(v) || !slices.Equal(got.Neighbors(v), want.Neighbors(v)) {
			t.Fatalf("%q: vertex %d differs", text, v)
		}
	}
}

// checkMemoShape: the memo holds at most max entries, its recency ring
// links exactly its entries, and it keeps only graphs that pass the
// query's own checks.
func checkMemoShape(t *testing.T, m *queryMemo) {
	t.Helper()
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.entries) > m.max {
		t.Fatalf("memo holds %d entries, bound %d", len(m.entries), m.max)
	}
	n := 0
	for e := m.ring.next; e != &m.ring; e = e.next {
		if e.next.prev != e || m.entries[e.text] != e {
			t.Fatalf("recency ring broken at %q", e.text)
		}
		if e.g.NumVertices() == 0 || !e.g.IsConnected() || len(e.text) > memoMaxText {
			t.Fatalf("memo keeps %q, which it must not", e.text)
		}
		n++
	}
	if n != len(m.entries) {
		t.Fatalf("ring links %d entries, map holds %d", n, len(m.entries))
	}
}

// FuzzQueryMemo sends interleaved texts through a small memo — valid,
// invalid, white-space variants of one query and repeats, chosen by the
// fuzzed ops, with evictions on the way — and holds each answer to a
// fresh graph.Parse of the same text (checkMemoParse) and the memo to
// its bound (checkMemoShape).
func FuzzQueryMemo(f *testing.F) {
	f.Add("t 4 4\nv 0 0 2\nv 1 1 2\nv 2 0 3\nv 3 1 1\ne 0 1\ne 0 2\ne 1 2\ne 2 3\n", []byte{0, 0, 1, 2, 0, 3, 4, 5, 6, 7, 8, 9, 10, 0, 1})
	f.Add("t 2 1\nv 0 5\nv 1 5\ne 0 1\n", []byte{3, 0, 0, 0, 2, 2, 1, 1, 0})
	f.Add("t 3 3\nv 0 0\nv 1 0\nv 2 0\ne 0 1\ne 1 2\ne 0 2\n", []byte{1, 4, 3, 2, 1, 0, 4, 3, 2, 1, 0})
	f.Add("v 0 0\n", []byte{0, 7, 0, 8})
	f.Fuzz(func(t *testing.T, base string, ops []byte) {
		if len(ops) == 0 || len(base) > 1<<12 {
			return
		}
		m := newQueryMemo(1 + int(ops[0])%4)
		texts := memoVariants(base)
		for _, op := range ops[1:] {
			checkMemoParse(t, m, texts[int(op)%len(texts)])
			checkMemoShape(t, m)
		}
	})
}

// TestQueryMemoStress shares one memo between goroutines parsing
// overlapping texts, for the race detector (make race-stress), and
// checks every answer.
func TestQueryMemoStress(t *testing.T) {
	texts := memoVariants("t 4 4\nv 0 0 2\nv 1 1 2\nv 2 0 3\nv 3 1 1\ne 0 1\ne 0 2\ne 1 2\ne 2 3\n")
	m := newQueryMemo(3)
	var wg sync.WaitGroup
	for w := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 200 {
				text := texts[(w+i*(w+1))%len(texts)]
				g, err := m.parse([]byte(text))
				if err == nil {
					graph.FingerprintOf(g)
					g.IsConnected()
				}
			}
		}()
	}
	wg.Wait()
	for _, text := range texts {
		checkMemoParse(t, m, text)
	}
	checkMemoShape(t, m)
}

// TestQueryMemoDisabled: a daemon without a plan cache memoizes nothing
// and parses every text.
func TestQueryMemoDisabled(t *testing.T) {
	m := newQueryMemo(0)
	if m != nil {
		t.Fatal("newQueryMemo(0) made a memo")
	}
	g, err := m.parse([]byte("t 2 1\nv 0 0\nv 1 0\ne 0 1\n"))
	if err != nil || g.NumEdges() != 1 {
		t.Fatalf("nil memo parse: %v, %v", g, err)
	}
}
