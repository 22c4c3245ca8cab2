package graph

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func triangleWithTail() *Graph {
	// 0-1, 1-2, 2-0 triangle; 3 hangs off 0.
	return MustFromEdges([]Label{0, 1, 2, 1}, [][2]Vertex{{0, 1}, {1, 2}, {2, 0}, {0, 3}})
}

func TestBuilderBasics(t *testing.T) {
	g := triangleWithTail()
	if got := g.NumVertices(); got != 4 {
		t.Fatalf("NumVertices = %d, want 4", got)
	}
	if got := g.NumEdges(); got != 4 {
		t.Fatalf("NumEdges = %d, want 4", got)
	}
	if got := g.Degree(0); got != 3 {
		t.Errorf("Degree(0) = %d, want 3", got)
	}
	if got := g.Degree(3); got != 1 {
		t.Errorf("Degree(3) = %d, want 1", got)
	}
	if got := g.MaxDegree(); got != 3 {
		t.Errorf("MaxDegree = %d, want 3", got)
	}
	if want := []Vertex{1, 2, 3}; !reflect.DeepEqual(g.Neighbors(0), want) {
		t.Errorf("Neighbors(0) = %v, want %v", g.Neighbors(0), want)
	}
}

func TestBuilderDeduplicatesEdges(t *testing.T) {
	g := MustFromEdges([]Label{0, 0}, [][2]Vertex{{0, 1}, {1, 0}, {0, 1}})
	if got := g.NumEdges(); got != 1 {
		t.Fatalf("NumEdges = %d after dedup, want 1", got)
	}
}

func TestBuilderRejectsSelfLoop(t *testing.T) {
	if _, err := FromEdges([]Label{0}, [][2]Vertex{{0, 0}}); err == nil {
		t.Fatal("expected error for self-loop")
	}
}

func TestBuilderRejectsOutOfRange(t *testing.T) {
	if _, err := FromEdges([]Label{0, 1}, [][2]Vertex{{0, 5}}); err == nil {
		t.Fatal("expected error for out-of-range endpoint")
	}
}

func TestHasEdge(t *testing.T) {
	g := triangleWithTail()
	cases := []struct {
		u, v Vertex
		want bool
	}{
		{0, 1, true}, {1, 0, true}, {1, 2, true}, {2, 0, true},
		{0, 3, true}, {3, 0, true},
		{1, 3, false}, {2, 3, false},
	}
	for _, c := range cases {
		if got := g.HasEdge(c.u, c.v); got != c.want {
			t.Errorf("HasEdge(%d,%d) = %v, want %v", c.u, c.v, got, c.want)
		}
	}
}

func TestLabelIndex(t *testing.T) {
	g := triangleWithTail()
	if want := []Vertex{1, 3}; !reflect.DeepEqual(g.VerticesWithLabel(1), want) {
		t.Errorf("VerticesWithLabel(1) = %v, want %v", g.VerticesWithLabel(1), want)
	}
	if got := g.LabelFrequency(1); got != 2 {
		t.Errorf("LabelFrequency(1) = %d, want 2", got)
	}
	if got := g.NumLabels(); got != 3 {
		t.Errorf("NumLabels = %d, want 3", got)
	}
}

func TestLabelPairEdgeCount(t *testing.T) {
	g := triangleWithTail()
	// Edges: (0:l0,1:l1) (1:l1,2:l2) (2:l2,0:l0) (0:l0,3:l1)
	if got := g.LabelPairEdgeCount(0, 1); got != 2 {
		t.Errorf("LabelPairEdgeCount(0,1) = %d, want 2", got)
	}
	if got := g.LabelPairEdgeCount(1, 0); got != 2 {
		t.Errorf("LabelPairEdgeCount symmetric lookup = %d, want 2", got)
	}
	if got := g.LabelPairEdgeCount(1, 1); got != 0 {
		t.Errorf("LabelPairEdgeCount(1,1) = %d, want 0", got)
	}
}

func TestEdgesOrderedAndComplete(t *testing.T) {
	g := triangleWithTail()
	want := [][2]Vertex{{0, 1}, {0, 2}, {0, 3}, {1, 2}}
	if got := g.Edges(); !reflect.DeepEqual(got, want) {
		t.Errorf("Edges() = %v, want %v", got, want)
	}
}

func TestEachEdgeEarlyStop(t *testing.T) {
	g := triangleWithTail()
	n := 0
	g.EachEdge(func(u, v Vertex) bool {
		n++
		return n < 2
	})
	if n != 2 {
		t.Errorf("EachEdge visited %d edges after early stop, want 2", n)
	}
}

func TestIOPRoundTrip(t *testing.T) {
	g := triangleWithTail()
	var buf bytes.Buffer
	if err := Write(&buf, g); err != nil {
		t.Fatalf("Write: %v", err)
	}
	g2, err := Parse(&buf)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if g2.NumVertices() != g.NumVertices() || g2.NumEdges() != g.NumEdges() {
		t.Fatalf("round trip changed shape: %v vs %v", g2, g)
	}
	for v := 0; v < g.NumVertices(); v++ {
		if g.Label(Vertex(v)) != g2.Label(Vertex(v)) {
			t.Errorf("label of %d changed", v)
		}
		if !reflect.DeepEqual(g.Neighbors(Vertex(v)), g2.Neighbors(Vertex(v))) {
			t.Errorf("neighbors of %d changed", v)
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name, in string
	}{
		{"empty", ""},
		{"no t line", "v 0 1\n"},
		{"bad t", "t x y\n"},
		{"non-consecutive ids", "t 2 0\nv 1 0\n"},
		{"bad vertex", "t 1 0\nv 0 x\n"},
		{"edge before t", "e 0 1\n"},
		{"bad edge", "t 2 1\nv 0 0\nv 1 0\ne 0 x\n"},
		{"degree mismatch", "t 2 1\nv 0 0 5\nv 1 0 1\ne 0 1\n"},
		{"unknown record", "t 1 0\nz 0\n"},
		{"self loop", "t 1 1\nv 0 0\ne 0 0\n"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := Parse(strings.NewReader(c.in)); err == nil {
				t.Errorf("Parse(%q) succeeded, want error", c.in)
			}
		})
	}
}

func TestParseSkipsComments(t *testing.T) {
	in := "# comment\nt 2 1\n% another\nv 0 0\nv 1 0\n\ne 0 1\n"
	g, err := Parse(strings.NewReader(in))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if g.NumEdges() != 1 {
		t.Fatalf("NumEdges = %d, want 1", g.NumEdges())
	}
}

// TestParseLineLimit pins the line limit of both text formats, so a
// change of the scanner's buffering (today 1 MiB allocated per call)
// cannot move it: a 100 kB line parses, a line over 1 MiB fails with
// bufio.ErrTooLong under the format's own prefix.
func TestParseLineLimit(t *testing.T) {
	const tail = "t 2 1\nv 0 0\nv 1 0\ne 0 1\n"
	long := "# " + strings.Repeat("x", 100_000) + "\n" + tail
	if g, err := Parse(strings.NewReader(long)); err != nil || g.NumEdges() != 1 {
		t.Errorf("100 kB comment line: graph %v, err %v", g, err)
	}
	if g, err := ParseEdgeList(strings.NewReader("# "+strings.Repeat("x", 100_000)+"\n1 2\n"), 1, 1); err != nil || g.NumEdges() != 1 {
		t.Errorf("edge list with a 100 kB comment line: graph %v, err %v", g, err)
	}

	tooLong := "# " + strings.Repeat("x", 1<<20) + "\n" + tail
	if _, err := Parse(strings.NewReader(tooLong)); err == nil || err.Error() != "graph: reading input: bufio.Scanner: token too long" {
		t.Errorf("line over 1 MiB: err = %v", err)
	}
	if _, err := ParseEdgeList(strings.NewReader(tooLong), 1, 1); err == nil || err.Error() != "graph: reading edge list: bufio.Scanner: token too long" {
		t.Errorf("edge-list line over 1 MiB: err = %v", err)
	}
}

func TestIsConnected(t *testing.T) {
	if g := triangleWithTail(); !g.IsConnected() {
		t.Error("triangleWithTail should be connected")
	}
	g := MustFromEdges([]Label{0, 0, 0}, [][2]Vertex{{0, 1}})
	if g.IsConnected() {
		t.Error("graph with isolated vertex should not be connected")
	}
	empty := MustFromEdges(nil, nil)
	if !empty.IsConnected() {
		t.Error("empty graph is connected by convention")
	}
}

func TestBFSTree(t *testing.T) {
	// Path 0-1-2-3 plus chord 0-2.
	g := MustFromEdges([]Label{0, 0, 0, 0}, [][2]Vertex{{0, 1}, {1, 2}, {2, 3}, {0, 2}})
	tr := NewBFSTree(g, 0)
	if tr.Root != 0 {
		t.Fatalf("Root = %d", tr.Root)
	}
	if want := []Vertex{0, 1, 2, 3}; !reflect.DeepEqual(tr.Order, want) {
		t.Errorf("Order = %v, want %v", tr.Order, want)
	}
	if tr.Parent[0] != NoVertex || tr.Parent[1] != 0 || tr.Parent[2] != 0 || tr.Parent[3] != 2 {
		t.Errorf("Parent = %v", tr.Parent)
	}
	if tr.Depth[3] != 2 {
		t.Errorf("Depth[3] = %d, want 2", tr.Depth[3])
	}
	if tr.MaxDepth() != 2 {
		t.Errorf("MaxDepth = %d, want 2", tr.MaxDepth())
	}
	if !tr.IsTreeEdge(0, 2) || tr.IsTreeEdge(1, 2) {
		t.Error("tree edge classification wrong")
	}
	ch := tr.Children()
	if want := []Vertex{1, 2}; !reflect.DeepEqual(ch[0], want) {
		t.Errorf("Children(0) = %v, want %v", ch[0], want)
	}
}

func TestTwoCore(t *testing.T) {
	g := triangleWithTail()
	core := g.TwoCore()
	want := []bool{true, true, true, false}
	if !reflect.DeepEqual(core, want) {
		t.Errorf("TwoCore = %v, want %v", core, want)
	}
	if g.CoreSize() != 3 {
		t.Errorf("CoreSize = %d, want 3", g.CoreSize())
	}
	// A tree has an empty 2-core.
	tree := MustFromEdges([]Label{0, 0, 0}, [][2]Vertex{{0, 1}, {1, 2}})
	if tree.CoreSize() != 0 {
		t.Errorf("tree CoreSize = %d, want 0", tree.CoreSize())
	}
}

func TestInducedSubgraph(t *testing.T) {
	g := triangleWithTail()
	sub, orig := g.InducedSubgraph([]Vertex{0, 1, 2})
	if sub.NumVertices() != 3 || sub.NumEdges() != 3 {
		t.Fatalf("induced triangle has %d vertices %d edges", sub.NumVertices(), sub.NumEdges())
	}
	if want := []Vertex{0, 1, 2}; !reflect.DeepEqual(orig, want) {
		t.Errorf("orig = %v, want %v", orig, want)
	}
	// Labels preserved.
	for i, v := range orig {
		if sub.Label(Vertex(i)) != g.Label(v) {
			t.Errorf("label mismatch at %d", i)
		}
	}
	sub2, _ := g.InducedSubgraph([]Vertex{1, 3})
	if sub2.NumEdges() != 0 {
		t.Errorf("induced {1,3} should have no edges, got %d", sub2.NumEdges())
	}
}

func TestNeighborDegreesDescending(t *testing.T) {
	g := triangleWithTail()
	got := g.NeighborDegreesDescending(0, nil)
	if want := []int{2, 2, 1}; !reflect.DeepEqual(got, want) {
		t.Errorf("NeighborDegreesDescending(0) = %v, want %v", got, want)
	}
}

func TestLabelCounter(t *testing.T) {
	g := triangleWithTail()
	c := NewLabelCounter(MaxLabelOf(g))
	c.CountNeighbors(g, 0)
	if c.Count(1) != 2 || c.Count(2) != 1 || c.Count(0) != 0 {
		t.Errorf("counts after CountNeighbors(0): l1=%d l2=%d l0=%d", c.Count(1), c.Count(2), c.Count(0))
	}
	touched := append([]Label(nil), c.Touched()...)
	sort.Slice(touched, func(i, j int) bool { return touched[i] < touched[j] })
	if !reflect.DeepEqual(touched, []Label{1, 2}) {
		t.Errorf("Touched = %v, want [1 2]", touched)
	}
	c.Reset()
	if c.Count(1) != 0 || len(c.Touched()) != 0 {
		t.Error("Reset did not clear counts")
	}
}

func TestCSRInvariantsProperty(t *testing.T) {
	// Property: for random graphs, adjacency is sorted, symmetric and
	// consistent with HasEdge.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(30)
		b := NewBuilder(n, 3*n)
		for i := 0; i < n; i++ {
			b.AddVertex(Label(rng.Intn(4)))
		}
		for i := 0; i < 3*n; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				b.AddEdge(Vertex(u), Vertex(v))
			}
		}
		g := b.MustBuild()
		total := 0
		for v := 0; v < n; v++ {
			ns := g.Neighbors(Vertex(v))
			total += len(ns)
			if !sort.SliceIsSorted(ns, func(i, j int) bool { return ns[i] < ns[j] }) {
				return false
			}
			for _, w := range ns {
				if !g.HasEdge(w, Vertex(v)) || !g.HasEdge(Vertex(v), w) {
					return false
				}
			}
		}
		return total == 2*g.NumEdges()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestStringSummary(t *testing.T) {
	g := triangleWithTail()
	s := g.String()
	if !strings.Contains(s, "|V|=4") || !strings.Contains(s, "|E|=4") {
		t.Errorf("String() = %q", s)
	}
}

func TestLoadDir(t *testing.T) {
	dir := t.TempDir()
	for i, g := range []*Graph{triangleWithTail(), MustFromEdges([]Label{0, 0}, [][2]Vertex{{0, 1}})} {
		if err := Save(filepath.Join(dir, fmt.Sprintf("q_%d.graph", i)), g); err != nil {
			t.Fatal(err)
		}
	}
	// A non-graph file must be ignored.
	if err := os.WriteFile(filepath.Join(dir, "notes.txt"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	gs, err := LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(gs) != 2 {
		t.Fatalf("loaded %d graphs, want 2", len(gs))
	}
	if gs[0].NumVertices() != 4 || gs[1].NumVertices() != 2 {
		t.Errorf("order wrong: %v %v", gs[0], gs[1])
	}
	if _, err := LoadDir(filepath.Join(dir, "missing")); err == nil {
		t.Error("expected error for missing dir")
	}
	empty := t.TempDir()
	if _, err := LoadDir(empty); err == nil {
		t.Error("expected error for dir without graphs")
	}
}
