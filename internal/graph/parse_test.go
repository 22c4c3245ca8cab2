package graph

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"regexp"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"testing"
	"testing/iotest"
)

// refParse is Parse as it was before the line tokenizer, verbatim: the
// oracle FuzzParseMatchesReference holds Parse to.
func refParse(r io.Reader) (*Graph, error) {
	if r == nil {
		return nil, fmt.Errorf("graph: nil reader")
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)

	var b *Builder
	declaredDegrees := map[Vertex]int{}
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") || strings.HasPrefix(line, "%") {
			continue
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "t":
			if len(fields) != 3 {
				return nil, fmt.Errorf("graph: line %d: t line needs 2 arguments", lineNo)
			}
			n, err1 := strconv.Atoi(fields[1])
			m, err2 := strconv.Atoi(fields[2])
			if err1 != nil || err2 != nil || n < 0 || m < 0 {
				return nil, fmt.Errorf("graph: line %d: malformed t line %q", lineNo, line)
			}
			b = NewBuilder(n, m)
		case "v":
			if b == nil {
				return nil, fmt.Errorf("graph: line %d: v line before t line", lineNo)
			}
			if len(fields) < 3 {
				return nil, fmt.Errorf("graph: line %d: v line needs id and label", lineNo)
			}
			id, err1 := strconv.ParseUint(fields[1], 10, 32)
			l, err2 := strconv.ParseUint(fields[2], 10, 32)
			if err1 != nil || err2 != nil {
				return nil, fmt.Errorf("graph: line %d: malformed v line %q", lineNo, line)
			}
			if int(id) != b.NumVertices() {
				return nil, fmt.Errorf("graph: line %d: vertex ids must be consecutive from 0, got %d want %d", lineNo, id, b.NumVertices())
			}
			b.AddVertex(Label(l))
			if len(fields) >= 4 {
				d, err := strconv.Atoi(fields[3])
				if err != nil {
					return nil, fmt.Errorf("graph: line %d: malformed degree in %q", lineNo, line)
				}
				declaredDegrees[Vertex(id)] = d
			}
		case "e":
			if b == nil {
				return nil, fmt.Errorf("graph: line %d: e line before t line", lineNo)
			}
			if len(fields) < 3 {
				return nil, fmt.Errorf("graph: line %d: e line needs two endpoints", lineNo)
			}
			u, err1 := strconv.ParseUint(fields[1], 10, 32)
			v, err2 := strconv.ParseUint(fields[2], 10, 32)
			if err1 != nil || err2 != nil {
				return nil, fmt.Errorf("graph: line %d: malformed e line %q", lineNo, line)
			}
			b.AddEdge(Vertex(u), Vertex(v))
		default:
			return nil, fmt.Errorf("graph: line %d: unknown record type %q", lineNo, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("graph: reading input: %w", err)
	}
	if b == nil {
		return nil, fmt.Errorf("graph: empty input (no t line)")
	}
	g, err := b.Build()
	if err != nil {
		return nil, err
	}
	for v, want := range declaredDegrees {
		if got := g.Degree(v); got != want {
			return nil, fmt.Errorf("graph: vertex %d declares degree %d but has %d", v, want, got)
		}
	}
	return g, nil
}

// refParseEdgeList is ParseEdgeList as it was before the line
// tokenizer, verbatim.
func refParseEdgeList(r io.Reader, numLabels int, seed int64) (*Graph, error) {
	if numLabels <= 0 {
		return nil, fmt.Errorf("graph: edge list needs at least 1 label")
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)

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
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") || strings.HasPrefix(line, "%") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return nil, fmt.Errorf("graph: edge list line %d: want two vertex ids, got %q", lineNo, line)
		}
		u, err1 := strconv.ParseUint(fields[0], 10, 64)
		v, err2 := strconv.ParseUint(fields[1], 10, 64)
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("graph: edge list line %d: malformed ids in %q", lineNo, line)
		}
		if u == v {
			continue // drop self-loops silently; SNAP files contain them
		}
		b.AddEdge(intern(u), intern(v))
	}
	if err := sc.Err(); err != nil {
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

// hugeHeader claims two billion vertices and edges in 24 bytes.
const hugeHeader = "t 2000000000 2000000000\n"

// degreeMismatch matches the error of a declared degree that does not
// hold. The reference checks declared degrees in map order, so with
// several wrong it names any one of them.
var degreeMismatch = regexp.MustCompile(`^graph: vertex \d+ declares degree -?\d+ but has \d+$`)

// sameParse reports how got differs from the reference's result, or ""
// when both are the same graph or the same error. A reference panic
// (a stale degree from an earlier t section naming a vertex the final
// graph lacks) must be an error from Parse.
func sameParse(got *Graph, gotErr error, ref func() (*Graph, error)) (diff string) {
	var want *Graph
	var wantErr error
	panicked := func() (p any) {
		defer func() { p = recover() }()
		want, wantErr = ref()
		return nil
	}()
	switch {
	case panicked != nil:
		if gotErr == nil {
			return fmt.Sprintf("reference panicked (%v), Parse returned %v", panicked, got)
		}
		return ""
	case gotErr != nil || wantErr != nil:
		if gotErr == nil || wantErr == nil {
			return fmt.Sprintf("error %v, reference error %v", gotErr, wantErr)
		}
		g, w := gotErr.Error(), wantErr.Error()
		if g != w && !(degreeMismatch.MatchString(g) && degreeMismatch.MatchString(w)) {
			return fmt.Sprintf("error %q, reference error %q", g, w)
		}
		return ""
	}
	go1, ga, gl := got.CSR()
	wo, wa, wl := want.CSR()
	if !slices.Equal(go1, wo) || !slices.Equal(ga, wa) || !slices.Equal(gl, wl) {
		return fmt.Sprintf("graph %v, reference %v", got, want)
	}
	gk, gc := got.LabelPairCounts()
	wk, wc := want.LabelPairCounts()
	if !slices.Equal(gk, wk) || !slices.Equal(gc, wc) || got.MaxDegree() != want.MaxDegree() || got.NumLabels() != want.NumLabels() {
		return fmt.Sprintf("label statistics of %v differ from the reference's", got)
	}
	return ""
}

// FuzzParseMatchesReference holds both text parsers to the verbatim
// reference copies above: on every input the same graph (labels, CSR,
// label statistics) or the same error text.
func FuzzParseMatchesReference(f *testing.F) {
	for _, in := range parseErrorInputs {
		f.Add(in)
	}
	for _, in := range []string{
		"t 2 1\nv 0 0 1\nv 1 1 1\ne 0 1\n",
		"t 2 1\u00a0\nv 0 0\u0085\nv 1 0\ne\u00a00 1\n", // NBSP and NEL are white space
		"\u00a0# comment\nt 1 0\nv 0 0\n",               // so a comment may follow them
		"t 1 0\u3000\nv\u20000 0\n",                     // and so are wider ones
		"t 2 1\nv 0 0 +1\nv 1 0 1\ne 0 1\n",             // Atoi takes a sign
		"t +2 1\nv +0 0\nv 1 0\ne 0 1\n",                // ParseUint does not
		"t 2 1\nv 0 0 -1\nv 1 0\ne 0 1\n",               // a negative degree never holds
		"t 002 01\nv 00 007\nv 01 0 001\ne 0 1\n",       // leading zeros
		"t\t2\t1\nv\t0\t0\nv 1\t0\ne\t0\t1\t\n",         // tabs
		"t 2 1\r\nv 0 0\r\nv 1 0\r\ne 0 1\r\n",          // CRLF
		"t 2 1\nv 0 0\nv 1 0\ne 0 4294967296\n",         // an id past uint32
		"t 1 0\nv 4294967296 0\n",
		"t 1 0\nv 0 4294967295\n",
		"t 2 1\nv 0 0 1 extra\nv 1 0\ne 0 1 2 3\n",     // fields past the fourth
		"t 2 1\nv 0 \xa0\nv 1 0\ne 0 1\n",              // invalid UTF-8 is not space
		"t 3 0\nv 0 0\nv 1 0\nv 2 0 5\nt 1 0\nv 0 0\n", // a stale degree past the last section
		"t 2 0\nv 0 0 3\nt 1 0\nv 0 0\n",               // a stale degree the last section keeps
		"t 2 1\nv 0 0 9\nv 1 0 9\ne 0 1\n",             // two wrong degrees
		"% c\n#\n\n  \nt 0 0\n",                        // comments and blank lines only
		"0 1\n1 2\n# c\n2 0\n9999999999 3\n3 3\n",      // an edge list
		"1\n",
		hugeHeader,
		// Ten-digit ids and labels at and past 2³²−1, and the edge
		// list's 64-bit ids at and past 2⁶⁴−1, also as 19- and 20-digit
		// fields.
		"t 2 1\nv 0 4294967295\nv 1 4294967294\ne 0 1\n",
		"t 2 1\nv 0 0\nv 1 4294967296\ne 0 1\n",
		"t 2 1\nv 0 0\nv 1 0\ne 4294967295 0\n",
		"t 1 0\nv 0 0 9999999999\n",
		"t 9999999999999999999 1\n",
		"t 1 10000000000000000000\n",
		"4294967295 4294967296\n18446744073709551615 1\n18446744073709551616 2\n",
		"9999999999999999999 1\n10000000000000000000 2\n99999999999999999999 3\n",
		// Signs on the t, id, label and degree fields.
		"t -1 0\n",
		"t +1 +0\nv 0 0 +0\n",
		"t 1 0\nv -0 0\n",
		"t 1 0\nv 0 +0\n",
		"t 2 1\nv 0 0 -0\nv 1 0 +1\ne 0 1\n",
		"t 2 1\nv 0 0 +\nv 1 0\ne 0 1\n",
		"t 2 1\nv 0 0 1\nv 1 0 1\ne +0 1\n",
		"t 2 1\nv 0 0 -9223372036854775808\nv 1 0\ne 0 1\n",
		"t 2 1\nv 0 0 -9223372036854775809\nv 1 0\ne 0 1\n",
		"t 9223372036854775807 0\n",
		"t 9223372036854775808 0\n",
		"+1 2\n-1 2\n",
		// Leading zeros, past the nineteen digits a field's value is
		// read in one pass for.
		"t 0000000000000000000002 00000000000000000000001\nv 00000000000000000000000 0000000000000000000000000\nv 1 0 000000000000000000000000001\ne 0 0000000000000000000001\n",
		"00000000000000000000000000005 7\n",
		// Lines over 4 KiB: white space, a comment and a field.
		"t 2 1\nv 0 0\nv 1 0\ne 0" + strings.Repeat(" ", 5000) + "1\n",
		"# " + strings.Repeat("c", 5000) + "\nt 1 0\nv 0 0\n",
		"t 1 0\nv " + strings.Repeat("0", 5000) + " 0\n",
		"t 1 0\nv 0 0 " + strings.Repeat("9", 5000) + "\n",
		// White space that is not ASCII, or not white space, between
		// digits.
		"t 2 1\nv 0 0\nv 1 0\ne 0\u00a01\n",
		"t 2 1\nv 0 0\nv 1 0\ne 0\u20001\n",
		"t 2 1\nv 0 0\nv 1 0\ne 0\u30001\u0085\n",
		"t 2 1\nv 0 0\nv 1 0\ne 0\xa01\n",
		"t 2 1\nv 0 0\nv 1 0\ne 0\u00a0\u00a01\n",
		"t 2\u20281\nv 0\u20290\nv 1 0\ne 0 1\n",
		"1\u00a02\n3\u30004\n",
		"12\xe3\x80\x8034\n",
		// Line ends: CR only, CR CR LF, no final newline, a final CR.
		"t 1 0\rv 0 0\r",
		"t 1 0\r\r\nv 0 0\n",
		"t 2 1\nv 0 0\nv 1 0\ne 0 1",
		"t 1 0\nv 0 0\n\r",
	} {
		f.Add(in)
	}
	f.Fuzz(func(t *testing.T, input string) {
		g, err := Parse(strings.NewReader(input))
		if d := sameParse(g, err, func() (*Graph, error) { return refParse(strings.NewReader(input)) }); d != "" {
			t.Errorf("Parse(%q): %s", input, d)
		}
		g, err = ParseEdgeList(strings.NewReader(input), 3, 7)
		if d := sameParse(g, err, func() (*Graph, error) { return refParseEdgeList(strings.NewReader(input), 3, 7) }); d != "" {
			t.Errorf("ParseEdgeList(%q): %s", input, d)
		}
	})
}

// TestParseLineLimitMatchesReference: a line that fills the scanner's
// largest buffer fails both parsers with bufio.ErrTooLong, one a byte
// shorter passes, and so does the same line ending the input without a
// newline — also behind 100 KiB of comments, read half a buffer at a
// time. The limits of handing over buffered lines in chunks are the
// line-by-line reference's.
func TestParseLineLimitMatchesReference(t *testing.T) {
	comments := strings.Repeat("# a comment line\n", 6000)
	for _, n := range []int{maxLine - 2, maxLine - 1, maxLine, maxLine + 1} {
		for _, tail := range []string{"\n", "\r\n", "", "\nv 1 0\n"} {
			for _, pad := range []string{" ", "0"} { // white space, or leading zeros of the id
				for _, prefix := range []string{"", comments} {
					line := "v " + strings.Repeat(pad, n-len("v 0 0")) + "0 0"
					input := prefix + "t 2 0\nv 0 0 0\n" + line[:n] + tail
					reader := func() io.Reader { return strings.NewReader(input) }
					if prefix != "" {
						reader = func() io.Reader { return iotest.HalfReader(strings.NewReader(input)) }
					}
					g, err := Parse(reader())
					if d := sameParse(g, err, func() (*Graph, error) { return refParse(reader()) }); d != "" {
						t.Errorf("line of %d bytes, pad %q, tail %q, %d bytes before: %s", n, pad, tail, len(prefix), d)
					}
					g, err = ParseEdgeList(reader(), 3, 7)
					if d := sameParse(g, err, func() (*Graph, error) { return refParseEdgeList(reader(), 3, 7) }); d != "" {
						t.Errorf("edge list, line of %d bytes, pad %q, tail %q, %d bytes before: %s", n, pad, tail, len(prefix), d)
					}
				}
			}
		}
	}
}

// TestParseLongInputMatchesReference: an input read in many chunks, in
// reads of any size, parses to the reference's graph, or fails with its
// error and line number, CRLF line ends split across reads included.
func TestParseLongInputMatchesReference(t *testing.T) {
	const n = 30000
	var b strings.Builder
	fmt.Fprintf(&b, "t %d %d\r\n", n, n-1)
	for v := 0; v < n; v++ {
		fmt.Fprintf(&b, "v %d %d 2\r\n", v, v%7)
	}
	for v := 1; v < n; v++ {
		fmt.Fprintf(&b, "e %d %d\r\n", v-1, v)
	}
	valid := b.String()
	for _, input := range []string{
		valid, // the two ends of the path declare degree 2: an error
		strings.Replace(strings.Replace(valid, "v 0 0 2", "v 0 0 1", 1), fmt.Sprintf("v %d %d 2", n-1, (n-1)%7), fmt.Sprintf("v %d %d 1", n-1, (n-1)%7), 1),
		valid + "e 0 x\n",
		strings.TrimSuffix(valid, "\r\n"),
	} {
		for _, wrap := range []func(io.Reader) io.Reader{
			func(r io.Reader) io.Reader { return r },
			iotest.HalfReader,
			iotest.OneByteReader,
		} {
			g, err := Parse(wrap(strings.NewReader(input)))
			if d := sameParse(g, err, func() (*Graph, error) { return refParse(wrap(strings.NewReader(input))) }); d != "" {
				t.Errorf("%d bytes: %s", len(input), d)
			}
		}
	}
}

// parseErrorInputs are TestParseErrors' inputs, for the fuzz corpus.
var parseErrorInputs = []string{
	"", "v 0 1\n", "t x y\n", "t 2 0\nv 1 0\n", "t 1 0\nv 0 x\n", "e 0 1\n",
	"t 2 1\nv 0 0\nv 1 0\ne 0 x\n", "t 2 1\nv 0 0 5\nv 1 0 1\ne 0 1\n",
	"t 1 0\nz 0\n", "t 1 1\nv 0 0\ne 0 0\n",
}

// queryText16 is a 16-vertex, 24-edge query in the text format with the
// degree column: a ring with eight chords, four labels.
func queryText16(t testing.TB) []byte {
	labels := make([]Label, 16)
	var edges [][2]Vertex
	for i := range 16 {
		labels[i] = Label(i % 4)
		edges = append(edges, [2]Vertex{Vertex(i), Vertex((i + 1) % 16)})
	}
	for i := range 8 {
		edges = append(edges, [2]Vertex{Vertex(i), Vertex(i + 5)})
	}
	var buf bytes.Buffer
	if err := Write(&buf, MustFromEdges(labels, edges)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// allocated returns the bytes and objects f allocates per call, averaged
// over runs: the least of three windows, each run with the collector
// off. A GC cycle that ends inside a window, or the runtime starting a
// thread there, allocates objects f never asked for; every window holds
// all of f's own.
func allocated(runs int, f func()) (bytes, objects float64) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	f() // warm up
	bytes, objects = math.Inf(1), math.Inf(1)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			f()
		}
		runtime.ReadMemStats(&after)
		bytes = min(bytes, float64(after.TotalAlloc-before.TotalAlloc)/float64(runs))
		objects = min(objects, float64(after.Mallocs-before.Mallocs)/float64(runs))
	}
	return bytes, objects
}

// TestParseQueryAllocs is the allocation budget of a query parse: a
// 16-vertex, 24-edge query in at most 13 objects and under 2 KiB. With
// a 1 MiB scanner buffer allocated per call it took 1 054 945 B and 145
// objects; with the label index and the label-pair counts built by
// Build, 6 320 B and 27; with the scanner's 4 KiB first buffer
// allocated per call, 5 520 B and 13. The indexes are built on first
// use now, and the buffer comes from a pool.
func TestParseQueryAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops a quarter of sync.Pool puts on purpose")
	}
	text := queryText16(t)
	var g *Graph
	b, n := allocated(50, func() {
		var err error
		if g, err = Parse(bytes.NewReader(text)); err != nil {
			t.Fatal(err)
		}
	})
	if g.NumVertices() != 16 || g.NumEdges() != 24 {
		t.Fatalf("parsed %v, want 16 vertices and 24 edges", g)
	}
	if b >= 2<<10 || n > 13 {
		t.Errorf("Parse of a 16-vertex query: %.0f B, %.0f allocs per call; budget < 2048 B, <= 13", b, n)
	}
}

// TestParseHugeHeaderAllocatesLittle: the counts of a t line are hints.
// Preallocating them made this 24-byte body a fatal out-of-memory error.
func TestParseHugeHeaderAllocatesLittle(t *testing.T) {
	var g *Graph
	var err error
	b, _ := allocated(1, func() { g, err = Parse(strings.NewReader(hugeHeader)) })
	if err != nil || g.NumVertices() != 0 {
		t.Fatalf("Parse(%q) = %v, %v; want the empty graph", hugeHeader, g, err)
	}
	if b >= 1<<20 {
		t.Errorf("Parse(%q) allocated %.0f B, want < 1 MiB", hugeHeader, b)
	}
}

func BenchmarkParseQuery(b *testing.B) {
	text := queryText16(b)
	b.ReportAllocs()
	b.SetBytes(int64(len(text)))
	for range b.N {
		if _, err := Parse(bytes.NewReader(text)); err != nil {
			b.Fatal(err)
		}
	}
}
