package main

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"subgraphmatching/internal/graph"
	"subgraphmatching/internal/service"
	"subgraphmatching/internal/testutil"
)

// The reflection-encoded records the append encoders replaced; the
// wire format is pinned against them.
type embeddingLine struct {
	Embedding []uint32 `json:"embedding"`
}

type batchEmbeddingLine struct {
	Index     int      `json:"index"`
	Embedding []uint32 `json:"embedding"`
}

func marshalLine(t testing.TB, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return append(b, '\n')
}

// appendEmbeddingLine and appendBatchEmbeddingLine build one line from
// scratch: the reference the delta encoder is held to.
func appendEmbeddingLine(dst []byte, m []uint32) []byte {
	return appendMappingTail(append(dst, embeddingHead...), m)
}

func appendBatchEmbeddingLine(dst []byte, index int, m []uint32) []byte {
	return appendMappingTail(appendBatchEmbeddingHead(dst, index), m)
}

func appendMappingTail(dst []byte, m []uint32) []byte {
	for i, v := range m {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendUint(dst, uint64(v), 10)
	}
	return append(dst, "]}\n"...)
}

// FuzzAppendEmbeddingLine pins both append encoders byte for byte
// against encoding/json. The seed corpus (run by plain `go test`)
// covers the empty mapping, 0, MaxUint32 and random mappings of 1–64
// vertices.
func FuzzAppendEmbeddingLine(f *testing.F) {
	pack := func(m ...uint32) []byte {
		b := make([]byte, 4*len(m))
		for i, v := range m {
			binary.LittleEndian.PutUint32(b[4*i:], v)
		}
		return b
	}
	f.Add(pack(), 0)
	f.Add(pack(0), 0)
	f.Add(pack(math.MaxUint32), 1023)
	f.Add(pack(0, math.MaxUint32, 1, 10, 99, 100), 7)
	rng := rand.New(rand.NewSource(13))
	for n := 1; n <= 64; n++ {
		m := make([]uint32, n)
		for i := range m {
			// Shifted so every decimal width from 1 to 10 digits shows up.
			m[i] = rng.Uint32() >> uint(rng.Intn(32))
		}
		f.Add(pack(m...), rng.Intn(maxBatchItems))
	}
	f.Fuzz(func(t *testing.T, raw []byte, index int) {
		m := make([]uint32, len(raw)/4) // non-nil: a mapping is never null on the wire
		for i := range m {
			m[i] = binary.LittleEndian.Uint32(raw[4*i:])
		}
		prefix := []byte("kept")
		if got, want := appendEmbeddingLine(prefix, m), marshalLine(t, embeddingLine{m}); !bytes.Equal(got[len(prefix):], want) || !bytes.HasPrefix(got, prefix) {
			t.Fatalf("appendEmbeddingLine(%v) = %q, want %q", m, got, want)
		}
		if got, want := appendBatchEmbeddingLine(nil, index, m), marshalLine(t, batchEmbeddingLine{index, m}); !bytes.Equal(got, want) {
			t.Fatalf("appendBatchEmbeddingLine(%d, %v) = %q, want %q", index, m, got, want)
		}
	})
}

// FuzzLineEncoder is the wire-format pin for what the sinks actually
// run: a sequence of mappings through one plain and one batch encoder
// must read, at every step, exactly what encoding/json writes for the
// reference structs. The script's first byte is the mapping length
// (mod 65); each later step either replaces the mapping by one of a new
// length or overwrites one to three positions, with values drawn from
// the decimal-width boundaries or from raw bytes.
func FuzzLineEncoder(f *testing.F) {
	boundaries := []uint32{0, 9, 10, 99, 100, 9999, 10000, 99999, 100000, 999999999, 1000000000, math.MaxUint32}
	// Even value bytes pick boundaries[b/2]; opcode 8 changes the length,
	// opcodes 1–3 overwrite that many positions.
	f.Add([]byte{0, 1, 1, 2, 8, 0, 8, 1, 22, 1, 0, 0}, 0)                           // lengths 0 → 0 → 1, MaxUint32 → 0
	f.Add([]byte{1, 2, 1, 0, 4, 1, 0, 6, 1, 0, 8, 1, 0, 12, 1, 0, 14, 1, 0, 2}, 10) // one number across 9/10, 99/100, 9999/10000 and back
	f.Add([]byte{64, 3, 63, 22, 0, 0, 31, 4, 2, 62, 2, 63, 2, 8, 64, 8, 1, 8, 0, 8, 64}, 1023)
	f.Add([]byte{12, 1, 11, 6, 1, 11, 8, 1, 11, 6, 2, 10, 20, 11, 2, 8, 5, 1, 4, 22, 8, 12}, 7)
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 16; i++ {
		script := make([]byte, 16+rng.Intn(112))
		rng.Read(script)
		f.Add(script, rng.Intn(maxBatchItems))
	}
	f.Fuzz(func(t *testing.T, script []byte, index int) {
		next := func() byte {
			if len(script) == 0 {
				return 0
			}
			b := script[0]
			script = script[1:]
			return b
		}
		value := func() uint32 {
			b := next()
			if b%2 == 0 {
				return boundaries[int(b/2)%len(boundaries)]
			}
			return (uint32(next()) | uint32(next())<<8 | uint32(next())<<16 | uint32(next())<<24) >> (b / 2 % 32)
		}
		mapping := func() []uint32 {
			m := make([]uint32, int(next())%65) // non-nil: a mapping is never null on the wire
			for i := range m {
				m[i] = value()
			}
			return m
		}
		plain := lineEncoder{head: []byte(embeddingHead)}
		batch := lineEncoder{head: appendBatchEmbeddingHead(nil, index)}
		m := mapping()
		for step := 0; ; step++ {
			if got, want := plain.encode(m), marshalLine(t, embeddingLine{m}); !bytes.Equal(got, want) {
				t.Fatalf("step %d: plain line %q, want %q", step, got, want)
			}
			if got, want := batch.encode(m), marshalLine(t, batchEmbeddingLine{index, m}); !bytes.Equal(got, want) {
				t.Fatalf("step %d: batch line %q, want %q", step, got, want)
			}
			if len(script) == 0 {
				return
			}
			if op := next(); op%8 == 0 {
				m = mapping()
			} else if len(m) > 0 {
				for k := 1 + int(op)%3; k > 0; k-- {
					m[int(next())%len(m)] = value()
				}
			}
		}
	})
}

// FuzzRunSink is the wire-format pin for the sink the handlers install:
// a sequence of runs through one plain and one batch runSink must leave
// on the wire, line for line, exactly what encoding/json writes for the
// reference structs — the delta-encoded first line of each run and the
// spliced rest alike. The script's first byte is the mapping length (1 +
// mod 64, so lengths 1 and 64 both occur); each run picks the open
// position, overwrites up to three other positions (the move between
// two runs of a depth-first search), and draws its values from the
// decimal-width boundaries or from raw bytes, so the number at the open
// position changes width inside a run. A run length byte of 255 makes a
// run long enough to cross streamFlushBytes.
func FuzzRunSink(f *testing.F) {
	boundaries := []uint32{0, 9, 10, 99, 100, 9999, 10000, 99999, 100000, 999999999, 1000000000, math.MaxUint32}
	f.Add([]byte{0, 0, 0, 5, 0, 2, 4, 6, 22}, 0)                            // length 1: the open position is the whole mapping
	f.Add([]byte{63, 63, 1, 3, 0, 22, 0, 63, 0, 2, 3, 4, 22, 0}, 1023)      // length 64, last position open, then the first
	f.Add([]byte{11, 5, 2, 255, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 22}, 7) // a run across the byte trigger, every width
	f.Add([]byte{3, 1, 0, 1, 8, 2, 3, 1, 8, 1, 0, 1, 6}, 10)                // runs of one
	rng := rand.New(rand.NewSource(19))
	for i := 0; i < 16; i++ {
		script := make([]byte, 16+rng.Intn(112))
		rng.Read(script)
		f.Add(script, rng.Intn(maxBatchItems))
	}
	f.Fuzz(func(t *testing.T, script []byte, index int) {
		next := func() byte {
			if len(script) == 0 {
				return 0
			}
			b := script[0]
			script = script[1:]
			return b
		}
		value := func() uint32 {
			b := next()
			if b%2 == 0 {
				return boundaries[int(b/2)%len(boundaries)]
			}
			return (uint32(next()) | uint32(next())<<8 | uint32(next())<<16 | uint32(next())<<24) >> (b / 2 % 32)
		}
		m := make([]uint32, 1+int(next())%64)
		for i := range m {
			m[i] = value()
		}
		wp, wb := newRecordingWriter(), newRecordingWriter()
		sp, sb := newNDJSONStream(wp), newNDJSONStream(wb)
		plain, batch := sp.runSink([]byte(embeddingHead)), sb.runSink(appendBatchEmbeddingHead(nil, index))
		var wantPlain, wantBatch []byte
		for run := 0; run == 0 || len(script) > 0; run++ {
			u := graph.Vertex(int(next()) % len(m))
			for k := int(next()) % 4; k > 0; k-- {
				m[int(next())%len(m)] = value()
			}
			n := 1 + int(next())%8
			if n == 8 {
				n = 1 + streamFlushBytes/len(embeddingHead)
			}
			vs := make([]uint32, n)
			for i := range vs {
				if vs[i] = value(); len(script) == 0 {
					vs[i] = boundaries[i%len(boundaries)] // a long run past the script's end still varies its widths
				}
			}
			for _, v := range vs {
				m[u] = v
				wantPlain = append(wantPlain, marshalLine(t, embeddingLine{m})...)
				wantBatch = append(wantBatch, marshalLine(t, batchEmbeddingLine{index, m})...)
			}
			m[u] = ^vs[0] // the sink is handed the open position unset
			if got := plain(m, u, vs); got != n {
				t.Fatalf("run %d: plain sink took %d of %d", run, got, n)
			}
			m[u] = ^vs[0]
			if got := batch(m, u, vs); got != n {
				t.Fatalf("run %d: batch sink took %d of %d", run, got, n)
			}
			// After every run (and so after every line: a line is final
			// once appended) the wire holds the reference bytes, flushed
			// or still buffered.
			if got := append(bytes.Join(wp.chunks, nil), sp.buf...); !bytes.Equal(got, wantPlain) {
				t.Fatalf("run %d (u=%d, %d lines): plain stream ends %q, want %q", run, u, n, tail(got), tail(wantPlain))
			}
			if got := append(bytes.Join(wb.chunks, nil), sb.buf...); !bytes.Equal(got, wantBatch) {
				t.Fatalf("run %d (u=%d, %d lines): batch stream ends %q, want %q", run, u, n, tail(got), tail(wantBatch))
			}
		}
	})
}

// tail is the last couple of lines of a stream, for a failure message.
func tail(b []byte) []byte { return b[max(0, len(b)-160):] }

// recordingWriter is a ResponseWriter that keeps what each Flush
// delivered and every write deadline it was given.
type recordingWriter struct {
	hdr       http.Header
	status    int
	pending   []byte
	chunks    [][]byte
	deadlines []time.Time
	offered   int    // bytes passed to Write, accepted or not
	failAfter int    // Write fails once this many bytes were accepted (0 = never)
	rejected  []byte // what the Writes that failed were offered
}

func newRecordingWriter() *recordingWriter { return &recordingWriter{hdr: http.Header{}} }

func (w *recordingWriter) Header() http.Header { return w.hdr }

func (w *recordingWriter) WriteHeader(status int) {
	if w.status == 0 {
		w.status = status
	}
}

func (w *recordingWriter) Write(p []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	w.offered += len(p)
	if w.failAfter > 0 && w.flushed()+len(w.pending) >= w.failAfter {
		w.rejected = append(w.rejected, p...)
		return 0, errors.New("recordingWriter: client gone")
	}
	w.pending = append(w.pending, p...)
	return len(p), nil
}

func (w *recordingWriter) Flush() {
	if len(w.pending) > 0 {
		w.chunks = append(w.chunks, w.pending)
		w.pending = nil
	}
}

func (w *recordingWriter) SetWriteDeadline(t time.Time) error {
	w.deadlines = append(w.deadlines, t)
	return nil
}

func (w *recordingWriter) flushed() int {
	n := 0
	for _, c := range w.chunks {
		n += len(c)
	}
	return n
}

func TestStreamFirstLineFlushedAlone(t *testing.T) {
	w := newRecordingWriter()
	s := newNDJSONStream(w)
	if s.committed() || w.status != 0 {
		t.Fatal("nothing may be committed before the first line")
	}
	first := appendEmbeddingLine(nil, []uint32{1, 2, 3})
	if !s.writeLine(first) {
		t.Fatal("writeLine failed")
	}
	if !s.committed() || w.status != http.StatusOK || w.hdr.Get("Content-Type") != "application/x-ndjson" {
		t.Fatalf("first line must commit the 200: status %d, headers %v", w.status, w.hdr)
	}
	if len(w.chunks) != 1 || !bytes.Equal(w.chunks[0], first) {
		t.Fatalf("first flush = %q, want exactly the first line", w.chunks)
	}
	// The next lines stay buffered: below the byte threshold, and no
	// clock check happens before streamClockStride lines.
	for i := 0; i < streamClockStride-1; i++ {
		s.writeLine(first)
	}
	if len(w.chunks) != 1 {
		t.Fatalf("%d flushes after %d small lines, want 1", len(w.chunks), streamClockStride)
	}
}

func TestStreamByteTrigger(t *testing.T) {
	w := newRecordingWriter()
	s := newNDJSONStream(w)
	line := append(bytes.Repeat([]byte("x"), 1023), '\n')
	const lines = 1024 // 1 MiB, written far faster than one flush interval per chunk
	for i := 0; i < lines; i++ {
		if !s.writeLine(line) {
			t.Fatal("writeLine failed")
		}
	}
	full := 0
	for i, c := range w.chunks {
		if len(c) >= streamFlushBytes+len(line) {
			t.Fatalf("flush %d carried %d bytes: the %d-byte trigger did not fire", i, len(c), streamFlushBytes)
		}
		if len(c) >= streamFlushBytes {
			full++
		}
	}
	if full == 0 {
		t.Fatalf("no flush reached %d bytes: %d flushes for %d bytes", streamFlushBytes, len(w.chunks), lines*len(line))
	}
	if len(w.deadlines) != len(w.chunks) {
		t.Fatalf("%d write deadlines for %d flushes, want one before each", len(w.deadlines), len(w.chunks))
	}
	for i, d := range w.deadlines {
		if until := time.Until(d); until <= 0 || until > streamWriteTimeout {
			t.Fatalf("deadline %d is %v away, want within (0, %v]", i, until, streamWriteTimeout)
		}
	}
}

func TestStreamDeadlineTriggerUnderSlowSink(t *testing.T) {
	w := newRecordingWriter()
	s := newNDJSONStream(w)
	line := appendEmbeddingLine(nil, []uint32{4, 5, 6})
	written := 0
	write := func(n int) {
		for i := 0; i < n; i++ {
			if !s.writeLine(line) {
				t.Fatal("writeLine failed")
			}
			written += len(line)
		}
	}
	write(1 + streamClockStride) // the first line, then one full stride: at most one clock check
	time.Sleep(streamFlushEvery + time.Millisecond)
	// A search that trickles: the next clock check is at most one stride
	// away and must find the interval expired, far below the byte trigger.
	write(streamClockStride)
	if got := w.flushed(); got != written {
		t.Fatalf("%d of %d bytes flushed after the interval passed", got, written)
	}
	if written >= streamFlushBytes {
		t.Fatal("test wrote enough to hit the byte trigger")
	}
}

func TestStreamFinishCarriesResultAndLiftsDeadline(t *testing.T) {
	w := newRecordingWriter()
	s := newNDJSONStream(w)
	for i := 0; i < 5; i++ {
		s.writeLine(appendEmbeddingLine(nil, []uint32{uint32(i)}))
	}
	if !s.writeJSON(map[string]matchResult{"result": {Embeddings: 5}}) {
		t.Fatal("writeJSON failed")
	}
	s.finish()
	if len(w.pending) != 0 {
		t.Fatalf("%d bytes left unflushed", len(w.pending))
	}
	last := w.chunks[len(w.chunks)-1]
	if !bytes.HasSuffix(last, marshalLine(t, map[string]matchResult{"result": {Embeddings: 5}})) {
		t.Fatalf("final flush %q does not end with the result line", last)
	}
	if !bytes.HasPrefix(last, []byte(`{"embedding":[1]}`)) {
		t.Fatalf("final flush %q must also carry the embeddings still buffered", last)
	}
	if d := w.deadlines[len(w.deadlines)-1]; !d.IsZero() {
		t.Fatalf("finish left write deadline %v on the connection", d)
	}
}

func TestStreamWriteFailureIsSticky(t *testing.T) {
	w := newRecordingWriter()
	w.failAfter = 1
	s := newNDJSONStream(w)
	line := append(bytes.Repeat([]byte("x"), 1023), '\n')
	if !s.writeLine(line) {
		t.Fatal("first line must go out")
	}
	ok := true
	n := 0
	for ; ok && n < 100; n++ {
		ok = s.writeLine(line)
	}
	if ok || n > streamFlushBytes/len(line) {
		t.Fatalf("sink reported failure after %d lines (ok=%v), want by the first %d-byte flush", n, ok, streamFlushBytes)
	}
	if s.writeLine(line) || s.writeJSON("x") {
		t.Fatal("a broken stream must keep reporting false")
	}
	offered := w.offered
	s.finish()
	if w.offered != offered {
		t.Fatal("finish wrote to a broken stream")
	}
}

// discardWriter is the cheapest ResponseWriter a sink can run against.
type discardWriter struct{ hdr http.Header }

func (w discardWriter) Header() http.Header              { return w.hdr }
func (discardWriter) WriteHeader(int)                    {}
func (discardWriter) Write(p []byte) (int, error)        { return len(p), nil }
func (discardWriter) Flush()                             {}
func (discardWriter) SetWriteDeadline(t time.Time) error { return nil }

func benchMapping() []uint32 {
	m := make([]uint32, 12)
	for i := range m {
		m[i] = uint32(1000 + 1500*i) // 4–5 digits, like ids in a 20 000-vertex graph
	}
	return m
}

func TestStreamSinkSteadyStateAllocs(t *testing.T) {
	w := discardWriter{}
	// Already started: the one-off header commit is not steady state.
	s := &ndjsonStream{w: w, rc: http.NewResponseController(w), started: true,
		buf: make([]byte, 0, streamFlushBytes+(4<<10))}
	sink := s.runSink([]byte(embeddingHead))
	m := benchMapping()
	sink(m, 11, []uint32{math.MaxUint32}) // sizes the line buffer at its widest
	// 400 runs of 5 lines cross the byte trigger several times, so the
	// flush path is inside the measurement; the open position walks
	// through every digit width inside each run and another position
	// moves between runs, so the encoder's shifts and the splice are too.
	vs := make([]uint32, 5)
	allocs := testing.AllocsPerRun(20, func() {
		for i := 0; i < 400; i++ {
			for j := range vs {
				vs[j] = math.MaxUint32 >> uint((5*i+j)%32)
			}
			m[3] = uint32(i)
			if sink(m, 11, vs) != len(vs) {
				t.Fatal("sink failed")
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state sink allocates %.1f times per 400 runs (2000 embeddings), want 0", allocs)
	}
}

// TestRunSinkBreaksMidRun: a stream that breaks at a flush inside a run
// reports the lines it took before that flush — some, not all — and
// takes nothing afterwards; what it had accepted is exactly the
// reference lines, whole.
func TestRunSinkBreaksMidRun(t *testing.T) {
	w := newRecordingWriter()
	w.failAfter = 1 // the first line goes out, the next flush fails
	s := newNDJSONStream(w)
	sink := s.runSink([]byte(embeddingHead))
	m := benchMapping()
	vs := make([]uint32, 4096)
	for i := range vs {
		vs[i] = uint32(7 * i)
	}
	taken := sink(m, 5, vs)
	if taken <= 1 || taken >= len(vs) {
		t.Fatalf("sink took %d of a %d-line run across a failing flush, want some and not all", taken, len(vs))
	}
	var want []byte
	for _, v := range vs[:taken+1] {
		m[5] = v
		want = append(want, marshalLine(t, embeddingLine{m})...)
	}
	// Offered: the first line (accepted) and then the buffer whose flush
	// failed, which ends with the line that was not taken.
	if got := append(bytes.Join(w.chunks, nil), w.rejected...); !bytes.Equal(got, want) {
		t.Fatalf("stream offered %d bytes ending %q, want the first %d lines ending %q", len(got), tail(got), taken+1, tail(want))
	}
	if len(want) > 2*streamFlushBytes {
		t.Fatalf("%d bytes offered before the sink noticed the break", len(want))
	}
	if sink(m, 5, vs) != 0 || sink(m, 4, vs[:1]) != 0 {
		t.Fatal("a broken stream must take nothing")
	}
}

// BenchmarkStreamSink is one stream-embeddings response without the
// search: 20 000 12-vertex embeddings through the sink into a
// discarding ResponseWriter. The "dfs" rows are the order the engine
// produces — runs that differ in the last position, the one before it
// moving between runs — handed over in runs of 1, 5 (the workload's
// mean) and 16; "random" changes every position on every line (runs of
// one), which is what interleaved parallel workers can approach and the
// most the delta encoder can be made to do.
func BenchmarkStreamSink(b *testing.B) {
	const lines = 20000
	random := make([][]uint32, lines)
	rng := rand.New(rand.NewSource(1))
	for j := range random {
		r := make([]uint32, 12)
		for i := range r {
			r[i] = uint32(rng.Intn(20000))
		}
		random[j] = r
	}
	type benchCase struct {
		name string
		feed func(sink func([]uint32, graph.Vertex, []uint32) int) bool
	}
	cases := []benchCase{{"random", func(sink func([]uint32, graph.Vertex, []uint32) int) bool {
		for _, m := range random {
			if sink(m, 11, m[11:]) != 1 {
				return false
			}
		}
		return true
	}}}
	for _, runLen := range []int{1, 5, 16} {
		m, vs := benchMapping(), make([]uint32, runLen)
		base := m[10]
		cases = append(cases, benchCase{fmt.Sprintf("dfs/run=%d", runLen), func(sink func([]uint32, graph.Vertex, []uint32) int) bool {
			for j := 0; j < lines; j += runLen {
				m[10] = base + uint32(j/runLen*7%9000)
				for k := range vs {
					vs[k] = 17500 + uint32((j/runLen+k)%13*631)
				}
				if sink(m, 11, vs) != runLen {
					return false
				}
			}
			return true
		}})
	}
	for _, bc := range cases {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s := newNDJSONStream(discardWriter{hdr: http.Header{}})
				if !bc.feed(s.runSink([]byte(embeddingHead))) {
					b.Fatal("sink failed")
				}
				s.finish()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*lines), "ns/line")
		})
	}
}

// manyMatchServer serves a single-label graph of average degree 20, on
// which pathQuery(4) has millions of embeddings and pathQuery(5) more
// than any socket buffer holds.
func manyMatchServer(t *testing.T) *httptest.Server {
	t.Helper()
	svc := service.New(service.Config{})
	g := testutil.RandomGraph(rand.New(rand.NewSource(3)), 400, 4000, 1)
	if _, err := svc.RegisterGraph("main", g, false); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(newServer(svc, serverOptions{}))
	t.Cleanup(ts.Close)
	return ts
}

// hubServer serves a star: one hub and 3000 leaves, every label 0. The
// 3-vertex path has 3000 × 2999 embeddings there, in leaf runs of 2999
// lines — a hundred KiB each, so every flush but one in three thousand
// falls inside a run.
const hubLeaves = 3000

func hubServer(t *testing.T) *httptest.Server {
	t.Helper()
	svc := service.New(service.Config{})
	edges := make([][2]graph.Vertex, hubLeaves)
	for i := range edges {
		edges[i] = [2]graph.Vertex{0, graph.Vertex(i + 1)}
	}
	if _, err := svc.RegisterGraph("main", graph.MustFromEdges(make([]graph.Label, hubLeaves+1), edges), false); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(newServer(svc, serverOptions{}))
	t.Cleanup(ts.Close)
	return ts
}

// pathQuery is the text of an n-vertex path with every label 0.
func pathQuery(t *testing.T, n int) string {
	t.Helper()
	b := graph.NewBuilder(n, n-1)
	for i := 0; i < n; i++ {
		b.AddVertex(0)
	}
	for i := 0; i+1 < n; i++ {
		b.AddEdge(graph.Vertex(i), graph.Vertex(i+1))
	}
	q, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return graphText(t, q)
}

func inUse(t *testing.T, ts *httptest.Server) int64 {
	t.Helper()
	_, body := do(t, "GET", ts.URL+"/healthz", "")
	var h healthResponse
	if err := json.Unmarshal([]byte(body), &h); err != nil {
		t.Fatal(err)
	}
	return h.InUse
}

// TestStreamWireFormatOverHTTP drives the real handler: every embedding
// line is exactly what encoding/json wrote for the old struct, and the
// stream still ends in one result line that agrees with the line count.
func TestStreamWireFormatOverHTTP(t *testing.T) {
	ts, q := manyMatchServer(t), pathQuery(t, 4)
	resp, body := do(t, "POST", ts.URL+"/match?graph=main&limit=3000&stream=1", q)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream = %d %q", resp.StatusCode, body)
	}
	lines := strings.SplitAfter(body, "\n")
	if lines[len(lines)-1] != "" {
		t.Fatal("stream must end with a newline")
	}
	lines = lines[:len(lines)-1]
	for i, line := range lines[:len(lines)-1] {
		var rec embeddingLine
		if err := json.Unmarshal([]byte(line), &rec); err != nil || len(rec.Embedding) != 4 {
			t.Fatalf("line %d %q: %v", i, line, err)
		}
		if want := string(marshalLine(t, rec)); line != want {
			t.Fatalf("line %d = %q, want %q", i, line, want)
		}
	}
	var tail struct {
		Result *matchResult `json:"result"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &tail); err != nil || tail.Result == nil {
		t.Fatalf("last line %q is not a result: %v", lines[len(lines)-1], err)
	}
	if tail.Result.Embeddings != 3000 || len(lines)-1 != 3000 {
		t.Fatalf("%d embedding lines, result reports %d, want 3000", len(lines)-1, tail.Result.Embeddings)
	}
}

// TestStreamClientDisconnectAbortsEnumeration runs the handler against
// a writer that fails after the first line: the sink must stop the
// search instead of enumerating (and encoding) the rest. On the hub
// fixture the failing flush falls inside the first leaf run: everything
// offered before the break is one run, cut short.
func TestStreamClientDisconnectAbortsEnumeration(t *testing.T) {
	for _, fx := range []struct {
		name   string
		ts     *httptest.Server
		q      string
		midRun bool
	}{
		{"short runs", manyMatchServer(t), pathQuery(t, 4), false},
		{"mid-run", hubServer(t), pathQuery(t, 3), true},
	} {
		t.Run(fx.name, func(t *testing.T) {
			ts, q := fx.ts, fx.q
			_, body := do(t, "POST", ts.URL+"/match?graph=main&limit=0", q)
			var full matchResult
			if err := json.Unmarshal([]byte(body), &full); err != nil {
				t.Fatal(err)
			}
			if full.Embeddings < 100000 {
				t.Fatalf("fixture too small: %d embeddings", full.Embeddings)
			}
			w := newRecordingWriter()
			w.failAfter = 1
			req := httptest.NewRequest("POST", "/match?graph=main&limit=0&stream=1", strings.NewReader(q))
			ts.Config.Handler.ServeHTTP(w, req)
			if w.offered > 2*streamFlushBytes {
				t.Fatalf("handler offered %d bytes to a dead client; the search was not aborted", w.offered)
			}
			if got := inUse(t, ts); got != 0 {
				t.Fatalf("in_use = %d after the aborted stream, want 0", got)
			}
			if !fx.midRun {
				return
			}
			lines := strings.SplitAfter(string(append(bytes.Join(w.chunks, nil), w.rejected...)), "\n")
			lines = lines[:len(lines)-1]
			if len(lines) < 2 || len(lines) >= hubLeaves-1 {
				t.Fatalf("%d lines offered, want a break inside the first run of %d", len(lines), hubLeaves-1)
			}
			var first embeddingLine
			if err := json.Unmarshal([]byte(lines[0]), &first); err != nil {
				t.Fatal(err)
			}
			for i, line := range lines {
				var rec embeddingLine
				if err := json.Unmarshal([]byte(line), &rec); err != nil || line != string(marshalLine(t, rec)) {
					t.Fatalf("line %d %q is not a whole embedding line: %v", i, line, err)
				}
				differ := 0
				for j := range rec.Embedding {
					if rec.Embedding[j] != first.Embedding[j] {
						differ++
					}
				}
				if differ > 1 {
					t.Fatalf("line %d %v is not of the first line's run %v", i, rec.Embedding, first.Embedding)
				}
			}
		})
	}
}

// TestStreamStalledReaderReleasesAdmission opens a stream and never
// reads it. Once the socket buffers fill, the write deadline fails the
// flush, the search aborts and the admission units come back; without
// the deadline the request would pin them until the peer closed. On the
// hub fixture the flush that fails is, as good as always, one inside a
// leaf run.
func TestStreamStalledReaderReleasesAdmission(t *testing.T) {
	old := streamWriteTimeout
	streamWriteTimeout = 200 * time.Millisecond
	t.Cleanup(func() { streamWriteTimeout = old })

	// Millions of embeddings: the response outgrows any kernel buffer
	// long before the search ends.
	for _, fx := range []struct {
		name string
		ts   *httptest.Server
		q    string
	}{
		{"short runs", manyMatchServer(t), pathQuery(t, 5)},
		{"mid-run", hubServer(t), pathQuery(t, 3)},
	} {
		t.Run(fx.name, func(t *testing.T) {
			ts, q := fx.ts, fx.q
			conn, err := net.Dial("tcp", ts.Listener.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			if tc, ok := conn.(*net.TCPConn); ok {
				tc.SetReadBuffer(4 << 10) // fill up sooner
			}
			fmt.Fprintf(conn, "POST /match?graph=main&limit=0&stream=1 HTTP/1.1\r\nHost: x\r\nContent-Length: %d\r\n\r\n%s", len(q), q)

			// Wait for the stream to start (admission held), without draining it.
			br := bufio.NewReaderSize(conn, 16)
			conn.SetReadDeadline(time.Now().Add(10 * time.Second))
			if status, err := br.ReadString('\n'); err != nil || !strings.Contains(status, "200") {
				t.Fatalf("status line %q: %v", status, err)
			}
			deadline := time.Now().Add(20 * time.Second)
			for inUse(t, ts) != 0 {
				if time.Now().After(deadline) {
					t.Fatal("a reader that never drains still pins its admission units")
				}
				time.Sleep(20 * time.Millisecond)
			}
		})
	}
}
