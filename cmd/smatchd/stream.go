package main

import (
	"encoding/json"
	"errors"
	"net/http"
	"strconv"
	"sync"
	"time"

	"subgraphmatching/internal/graph"
)

// The NDJSON flush rule, shared by /match?stream=1 and
// /match/batch?stream=1. The first line is flushed at once so the
// client's time-to-first-byte is the time to the first embedding; after
// that the buffer goes out when it holds streamFlushBytes or when
// streamFlushEvery has passed since the last flush. The clock is read
// once per streamClockStride lines, so a trickling search never leaves
// more than that many lines unflushed without having looked at it.
// streamFlushBytes is the knee of a 64/128/256 KiB sweep on the
// stream-embeddings workload (EXPERIMENTS.md "Stream flush size"): at
// 32 KiB the writes and flushes were a fifth of the daemon's CPU, 128
// KiB took most of that back, and 256 KiB gained no more than the noise
// while every concurrent stream holds one buffer of the size.
const (
	streamFlushBytes  = 128 << 10
	streamFlushEvery  = 5 * time.Millisecond
	streamClockStride = 16
)

// streamBufPool holds the stream buffers: a response takes one in
// newNDJSONStream and puts it back in finish, so a streamed response
// does not allocate its buffer. A buffer has room for the line that
// crosses the threshold, so steady-state appends never grow it.
var streamBufPool = sync.Pool{New: func() any {
	b := make([]byte, 0, streamFlushBytes+(4<<10))
	return &b
}}

// errStreamFinished is the sticky error of a stream whose buffer went
// back to the pool.
var errStreamFinished = errors.New("stream finished")

// streamWriteTimeout bounds one flush. A reader that stops draining
// fails the write once the socket buffers fill, the sink reports false,
// the search aborts and its admission units are released instead of
// staying pinned behind a dead peer. A var only so the stalled-reader
// test can shorten it.
var streamWriteTimeout = 30 * time.Second

// An embedding line is a head — {"embedding":[ for /match,
// {"index":i,"embedding":[ for item i of a batch — followed by the
// mapping's numbers and ]}\n: the bytes json.Encoder produced for
// struct{Embedding []uint32} and struct{Index int; Embedding []uint32},
// built without reflection or allocation.
const embeddingHead = `{"embedding":[`

func appendBatchEmbeddingHead(dst []byte, index int) []byte {
	dst = append(dst, `{"index":`...)
	dst = strconv.AppendInt(dst, int64(index), 10)
	return append(dst, `,"embedding":[`...)
}

// lineEncoder produces the first embedding line of each run a sink
// receives. Consecutive runs of a depth-first search differ in the last
// two or three mapped vertices, so it keeps the previous line and
// rewrites only the numbers that changed — in place when the digit count
// is the same, by shifting the rest of the line when it is not. The
// result is always the line encodeFull builds from scratch, which is
// what the first call and a change of mapping length get.
type lineEncoder struct {
	head []byte   // everything before the first number
	line []byte   // the previous line, complete
	prev []uint32 // the mapping line encodes
	// off[i] is where number i starts in line; it ends one byte before
	// off[i+1], at its separator (',' or, for the last number, ']').
	off []int
}

func (e *lineEncoder) encode(m []uint32) []byte {
	if len(e.line) == 0 || len(m) != len(e.prev) {
		return e.encodeFull(m)
	}
	prev := e.prev[:len(m)]
	changed := 0
	for i, v := range m {
		if v != prev[i] {
			changed++
		}
	}
	// Rewriting a number costs about twice what appending it in sequence
	// does (the shift, the offsets), so lines that share less than half
	// their numbers with the previous one — interleaved parallel workers
	// — are cheaper built afresh.
	if 2*changed > len(m) {
		return e.encodeFull(m)
	}
	for i, v := range m {
		if v == prev[i] {
			continue
		}
		prev[i] = v
		var buf [10]byte
		d := formatUint32(&buf, v)
		start, end := e.off[i], e.off[i+1]-1
		if grow := len(d) - (end - start); grow != 0 {
			n := len(e.line)
			if grow > 0 {
				e.line = append(e.line, d[:grow]...) // any grow bytes: overwritten below
			}
			copy(e.line[end+grow:], e.line[end:n])
			e.line = e.line[:n+grow]
			for j := i + 1; j < len(e.off); j++ {
				e.off[j] += grow
			}
		}
		copy(e.line[start:], d)
	}
	return e.line
}

// formatUint32 writes v in decimal at the end of buf (a uint32 has at
// most 10 digits) and returns the digits: strconv.AppendUint without
// the base dispatch, which was a third of the encoder's time.
func formatUint32(buf *[10]byte, v uint32) []byte {
	i := len(buf) - 1
	for ; v >= 10; i-- {
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	buf[i] = byte('0' + v)
	return buf[i:]
}

func (e *lineEncoder) encodeFull(m []uint32) []byte {
	e.prev = append(e.prev[:0], m...)
	e.off = e.off[:0]
	line := append(e.line[:0], e.head...)
	for i, v := range m {
		if i > 0 {
			line = append(line, ',')
		}
		e.off = append(e.off, len(line))
		var buf [10]byte
		line = append(line, formatUint32(&buf, v)...)
	}
	e.off = append(e.off, len(line)+1)
	e.line = append(line, "]}\n"...)
	return e.line
}

// ndjsonStream is the one streaming response writer. Lines are
// appended to a reused buffer under the mutex (batch groups enumerate
// concurrently; whole lines never interleave bytes) and flushed by the
// rule above. The 200 is committed lazily at the first line, so
// whatever fails before anything streamed still gets a real status
// code from httpError. A failed write or flush is sticky: every later
// write reports false, which is how backpressure and a vanished or
// stalled client abort the search.
type ndjsonStream struct {
	w  http.ResponseWriter
	rc *http.ResponseController

	mu        sync.Mutex
	buf       []byte
	pooled    *[]byte // where buf came from, until finish returns it
	started   bool    // header committed, first line flushed
	sinceTick int     // lines appended since the clock was last read
	lastFlush time.Time
	err       error
}

func newNDJSONStream(w http.ResponseWriter) *ndjsonStream {
	p := streamBufPool.Get().(*[]byte)
	return &ndjsonStream{w: w, rc: http.NewResponseController(w), buf: (*p)[:0], pooled: p}
}

// writeLine appends one complete line (trailing newline included) and
// applies the flush rule. It reports false once the stream is broken.
func (s *ndjsonStream) writeLine(line []byte) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return false
	}
	s.buf = append(s.buf, line...)
	return s.lineAppendedLocked()
}

// lineAppendedLocked applies the flush rule after one line went into the
// buffer — the one place it is written, for whole lines and for the
// spliced lines of a run alike. It reports false once the stream is
// broken.
func (s *ndjsonStream) lineAppendedLocked() bool {
	switch {
	case !s.started:
		s.started = true
		s.w.Header().Set("Content-Type", "application/x-ndjson")
		s.w.WriteHeader(http.StatusOK)
		s.flushLocked()
	case len(s.buf) >= streamFlushBytes:
		s.flushLocked()
	default:
		if s.sinceTick++; s.sinceTick >= streamClockStride {
			s.sinceTick = 0
			if time.Since(s.lastFlush) >= streamFlushEvery {
				s.flushLocked()
			}
		}
	}
	return s.err == nil
}

// runSink is the embedding sink of one search, in the engine's run form
// (core.Limits.OnRun): head is embeddingHead for /match?stream=1 and
// appendBatchEmbeddingHead(nil, i) for item i of a streamed batch. The
// lines of a run differ in the one number at position u. The first is
// delta-encoded against the previous run's, outside the stream's lock —
// the service serializes the calls of one search, and items of
// different batch groups each have their own encoder. Then, under one
// hold of the mutex, every further line is that line's bytes before
// number u, the digits of v, and its bytes from u's separator on,
// appended straight to the stream buffer: the same bytes encoding the
// whole mapping would give, since the line is a pure function of the
// mapping and nothing but position u changed. The flush rule runs after
// every line. A broken stream returns the number of lines it took.
func (s *ndjsonStream) runSink(head []byte) func(m []uint32, u graph.Vertex, vs []uint32) int {
	enc := lineEncoder{head: head}
	return func(m []uint32, u graph.Vertex, vs []uint32) int {
		m[u] = vs[0]
		line := enc.encode(m)
		before, after := line[:enc.off[u]], line[enc.off[u+1]-1:]
		s.mu.Lock()
		defer s.mu.Unlock()
		if s.err != nil {
			return 0
		}
		s.buf = append(s.buf, line...)
		taken := 0
		for s.lineAppendedLocked() {
			if taken++; taken == len(vs) {
				break
			}
			var buf [10]byte
			s.buf = append(append(append(s.buf, before...), formatUint32(&buf, vs[taken])...), after...)
		}
		return taken
	}
}

// writeJSON writes v as one line: the trailing result, error and
// per-item summary records, which are rare enough for encoding/json.
func (s *ndjsonStream) writeJSON(v any) bool {
	line, err := json.Marshal(v)
	if err != nil {
		return false
	}
	return s.writeLine(append(line, '\n'))
}

// committed reports whether the 200 and the first line have gone out.
func (s *ndjsonStream) committed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.started
}

// finish flushes what is buffered, lifts the write deadline, which
// would otherwise outlive the handler on a keep-alive connection and
// fail a later response, and returns the buffer to the pool. The stream
// takes no line after it.
func (s *ndjsonStream) finish() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err == nil && len(s.buf) > 0 {
		s.flushLocked()
	}
	_ = s.rc.SetWriteDeadline(time.Time{}) // unsupported or already broken: nothing to lift
	if s.pooled != nil {
		*s.pooled = s.buf[:0]
		streamBufPool.Put(s.pooled)
		s.pooled, s.buf = nil, nil
	}
	if s.err == nil {
		s.err = errStreamFinished
	}
}

func (s *ndjsonStream) flushLocked() {
	// A ResponseWriter without deadline support (a test recorder) just
	// goes unbounded; a real connection always has it.
	if err := s.rc.SetWriteDeadline(time.Now().Add(streamWriteTimeout)); err != nil && !errors.Is(err, http.ErrNotSupported) {
		s.err = err
		return
	}
	if _, err := s.w.Write(s.buf); err != nil {
		s.err = err
		return
	}
	s.buf = s.buf[:0]
	if err := s.rc.Flush(); err != nil && !errors.Is(err, http.ErrNotSupported) {
		s.err = err
		return
	}
	// Timed from the end of the flush: a slow reader stretches the
	// interval instead of turning every clock check into a tiny flush.
	s.sinceTick = 0
	s.lastFlush = time.Now()
}
