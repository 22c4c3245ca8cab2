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

// recordingWriter is a ResponseWriter that keeps what each Flush
// delivered and every write deadline it was given.
type recordingWriter struct {
	hdr       http.Header
	status    int
	pending   []byte
	chunks    [][]byte
	deadlines []time.Time
	offered   int // bytes passed to Write, accepted or not
	failAfter int // Write fails once this many bytes were accepted (0 = never)
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
	sink := s.embeddingSink()
	m := benchMapping()
	m[11] = math.MaxUint32
	sink(m) // sizes the line buffer at its widest
	// 2000 lines per run cross the byte trigger several times, so the
	// flush path is inside the measurement; the last position walks
	// through every digit width, so the encoder's shifts are too.
	allocs := testing.AllocsPerRun(20, func() {
		for i := 0; i < 2000; i++ {
			m[11] = math.MaxUint32 >> uint(i%32)
			m[3] = uint32(i)
			if !sink(m) {
				t.Fatal("sink failed")
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state sink allocates %.1f times per 2000 embeddings, want 0", allocs)
	}
}

// BenchmarkStreamSink is one stream-embeddings response without the
// search: 20 000 12-vertex embeddings through the sink into a
// discarding ResponseWriter. "dfs" is the order the engine produces —
// runs of 13 embeddings that differ in the last position, the one
// before it moving between runs — and "random" changes every position
// on every line, which is what interleaved parallel workers can
// approach and the most the delta encoder can be made to do.
func BenchmarkStreamSink(b *testing.B) {
	const lines = 20000
	dfs, random := make([][]uint32, lines), make([][]uint32, lines)
	rng := rand.New(rand.NewSource(1))
	for j := range dfs {
		m := benchMapping()
		m[10] += uint32(j / 13 * 7 % 9000)
		m[11] += uint32(j % 13 * 631)
		dfs[j] = m
		r := make([]uint32, 12)
		for i := range r {
			r[i] = uint32(rng.Intn(20000))
		}
		random[j] = r
	}
	for _, bc := range []struct {
		name string
		rows [][]uint32
	}{{"dfs", dfs}, {"random", random}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s := newNDJSONStream(discardWriter{hdr: http.Header{}})
				sink := s.embeddingSink()
				for _, m := range bc.rows {
					if !sink(m) {
						b.Fatal("sink failed")
					}
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
// search instead of enumerating (and encoding) the rest.
func TestStreamClientDisconnectAbortsEnumeration(t *testing.T) {
	ts, q := manyMatchServer(t), pathQuery(t, 4)
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
}

// TestStreamStalledReaderReleasesAdmission opens a stream and never
// reads it. Once the socket buffers fill, the write deadline fails the
// flush, the search aborts and the admission units come back; without
// the deadline the request would pin them until the peer closed.
func TestStreamStalledReaderReleasesAdmission(t *testing.T) {
	old := streamWriteTimeout
	streamWriteTimeout = 200 * time.Millisecond
	t.Cleanup(func() { streamWriteTimeout = old })

	// Tens of millions of embeddings: the response outgrows any kernel
	// buffer long before the search ends.
	ts, q := manyMatchServer(t), pathQuery(t, 5)
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
}
