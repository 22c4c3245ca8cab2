package graph

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// The text format matches the one used by the paper's released code
// (github.com/RapidsAtHKUST/SubgraphMatching):
//
//	t <numVertices> <numEdges>
//	v <id> <label> <degree>
//	e <u> <v>
//
// Vertex ids must be 0..n-1. The degree column is informational and is
// validated when present.

// Parse reads a graph in the text format from r.
func Parse(r io.Reader) (*Graph, error) {
	if r == nil {
		return nil, fmt.Errorf("graph: nil reader")
	}
	s := newLineScanner(r)
	defer s.release()
	var b *Builder
	// declared[v] is the degree column of vertex v where hasDegree[v].
	// The list outlives a second t line: an id keeps the last degree any
	// section declared for it.
	var declared []int
	var hasDegree []bool
	for s.next() {
		switch string(s.field(0)) {
		case "t":
			if s.n != 3 {
				return nil, fmt.Errorf("graph: line %d: t line needs 2 arguments", s.no)
			}
			n, ok1 := s.intField(1)
			m, ok2 := s.intField(2)
			if !ok1 || !ok2 || n < 0 || m < 0 {
				return nil, fmt.Errorf("graph: line %d: malformed t line %q", s.no, s.line())
			}
			b = NewBuilder(n, m)
			if declared == nil {
				declared, hasDegree = make([]int, 0, cap(b.labels)), make([]bool, 0, cap(b.labels))
			}
		case "v":
			if b == nil {
				return nil, fmt.Errorf("graph: line %d: v line before t line", s.no)
			}
			if s.n < 3 {
				return nil, fmt.Errorf("graph: line %d: v line needs id and label", s.no)
			}
			id, ok1 := s.uintField(1, math.MaxUint32)
			l, ok2 := s.uintField(2, math.MaxUint32)
			if !ok1 || !ok2 {
				return nil, fmt.Errorf("graph: line %d: malformed v line %q", s.no, s.line())
			}
			if int(id) != b.NumVertices() {
				return nil, fmt.Errorf("graph: line %d: vertex ids must be consecutive from 0, got %d want %d", s.no, id, b.NumVertices())
			}
			b.AddVertex(Label(l))
			if int(id) == len(declared) {
				declared, hasDegree = append(declared, 0), append(hasDegree, false)
			}
			if s.n >= 4 {
				d, ok := s.intField(3)
				if !ok {
					return nil, fmt.Errorf("graph: line %d: malformed degree in %q", s.no, s.line())
				}
				declared[id], hasDegree[id] = d, true
			}
		case "e":
			if b == nil {
				return nil, fmt.Errorf("graph: line %d: e line before t line", s.no)
			}
			if s.n < 3 {
				return nil, fmt.Errorf("graph: line %d: e line needs two endpoints", s.no)
			}
			u, ok1 := s.uintField(1, math.MaxUint32)
			v, ok2 := s.uintField(2, math.MaxUint32)
			if !ok1 || !ok2 {
				return nil, fmt.Errorf("graph: line %d: malformed e line %q", s.no, s.line())
			}
			b.AddEdge(Vertex(u), Vertex(v))
		default:
			return nil, fmt.Errorf("graph: line %d: unknown record type %q", s.no, s.field(0))
		}
	}
	if err := s.sc.Err(); err != nil {
		return nil, fmt.Errorf("graph: reading input: %w", err)
	}
	if b == nil {
		return nil, fmt.Errorf("graph: empty input (no t line)")
	}
	g, err := b.Build()
	if err != nil {
		return nil, err
	}
	for v, want := range declared {
		if !hasDegree[v] {
			continue
		}
		if v >= g.NumVertices() {
			return nil, fmt.Errorf("graph: vertex %d declares degree %d but the graph has %d vertices", v, want, g.NumVertices())
		}
		if got := g.Degree(Vertex(v)); got != want {
			return nil, fmt.Errorf("graph: vertex %d declares degree %d but has %d", v, want, got)
		}
	}
	return g, nil
}

// Load reads a graph file in the text format.
func Load(path string) (*Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("graph: %w", err)
	}
	defer f.Close()
	g, err := Parse(f)
	if err != nil {
		return nil, fmt.Errorf("graph: %s: %w", path, err)
	}
	return g, nil
}

// Write serializes g in the text format.
func Write(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "t %d %d\n", g.NumVertices(), g.NumEdges()); err != nil {
		return err
	}
	for v := 0; v < g.NumVertices(); v++ {
		if _, err := fmt.Fprintf(bw, "v %d %d %d\n", v, g.Label(Vertex(v)), g.Degree(Vertex(v))); err != nil {
			return err
		}
	}
	var werr error
	g.EachEdge(func(u, v Vertex) bool {
		_, werr = fmt.Fprintf(bw, "e %d %d\n", u, v)
		return werr == nil
	})
	if werr != nil {
		return werr
	}
	return bw.Flush()
}

// LoadDir loads every *.graph file in a directory, sorted by filename —
// the layout cmd/genquery writes query sets in.
func LoadDir(dir string) ([]*Graph, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("graph: %w", err)
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".graph") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, fmt.Errorf("graph: no .graph files in %s", dir)
	}
	out := make([]*Graph, 0, len(names))
	for _, name := range names {
		g, err := Load(filepath.Join(dir, name))
		if err != nil {
			return nil, err
		}
		out = append(out, g)
	}
	return out, nil
}

// Save writes g to a file in the text format.
func Save(path string, g *Graph) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("graph: %w", err)
	}
	if err := Write(f, g); err != nil {
		f.Close()
		return fmt.Errorf("graph: writing %s: %w", path, err)
	}
	return f.Close()
}
