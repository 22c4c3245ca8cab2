package graph

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
)

// Edge-list ingestion for SNAP-style datasets: one "u v" pair per line,
// '#' or '%' comments, arbitrary (possibly sparse) vertex ids. Such
// datasets carry no labels; following the paper's methodology for
// unlabeled graphs (Section 4), labels are assigned uniformly at random
// from a label set of the requested size, deterministically in the seed.

// ParseEdgeList reads a whitespace-separated edge list from r,
// compacting arbitrary vertex ids to 0..n-1 (in first-appearance order)
// and assigning labels uniformly from numLabels labels using seed.
// Self-loops and duplicate edges are dropped.
func ParseEdgeList(r io.Reader, numLabels int, seed int64) (*Graph, error) {
	if numLabels <= 0 {
		return nil, fmt.Errorf("graph: edge list needs at least 1 label")
	}
	s := newLineScanner(r)
	defer s.release()
	idOf := map[uint64]Vertex{}
	b := NewBuilder(0, 0)
	intern := func(raw uint64) Vertex {
		if v, ok := idOf[raw]; ok {
			return v
		}
		v := b.AddVertex(0) // labels assigned after the vertex count is known
		idOf[raw] = v
		return v
	}
	for s.next() {
		if s.n < 2 {
			return nil, fmt.Errorf("graph: edge list line %d: want two vertex ids, got %q", s.no, s.line())
		}
		u, ok1 := s.uintField(0, math.MaxUint64)
		v, ok2 := s.uintField(1, math.MaxUint64)
		if !ok1 || !ok2 {
			return nil, fmt.Errorf("graph: edge list line %d: malformed ids in %q", s.no, s.line())
		}
		if u == v {
			continue // drop self-loops silently; SNAP files contain them
		}
		b.AddEdge(intern(u), intern(v))
	}
	if err := s.sc.Err(); err != nil {
		return nil, fmt.Errorf("graph: reading edge list: %w", err)
	}
	if b.NumVertices() == 0 {
		return nil, fmt.Errorf("graph: empty edge list")
	}
	rng := rand.New(rand.NewSource(seed))
	for v := 0; v < b.NumVertices(); v++ {
		b.SetLabel(Vertex(v), Label(rng.Intn(numLabels)))
	}
	return b.Build()
}

// LoadEdgeList reads an edge-list file (see ParseEdgeList).
func LoadEdgeList(path string, numLabels int, seed int64) (*Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("graph: %w", err)
	}
	defer f.Close()
	g, err := ParseEdgeList(f, numLabels, seed)
	if err != nil {
		return nil, fmt.Errorf("graph: %s: %w", path, err)
	}
	return g, nil
}
