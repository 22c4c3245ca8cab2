package main

import (
	"encoding/json"
	"errors"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// The NDJSON flush rule, shared by /match?stream=1 and
// /match/batch?stream=1. The first line is flushed at once so the
// client's time-to-first-byte is the time to the first embedding; after
// that the buffer goes out when it holds streamFlushBytes or when
// streamFlushEvery has passed since the last flush. The clock is read
// once per streamClockStride lines, so a trickling search never leaves
// more than that many lines unflushed without having looked at it.
const (
	streamFlushBytes  = 32 << 10
	streamFlushEvery  = 5 * time.Millisecond
	streamClockStride = 16
)

// streamWriteTimeout bounds one flush. A reader that stops draining
// fails the write once the socket buffers fill, the sink reports false,
// the search aborts and its admission units are released instead of
// staying pinned behind a dead peer. A var only so the stalled-reader
// test can shorten it.
var streamWriteTimeout = 30 * time.Second

// appendEmbeddingLine appends {"embedding":[m...]}\n to dst — the bytes
// json.Encoder produced for struct{Embedding []uint32}, built without
// reflection or allocation.
func appendEmbeddingLine(dst []byte, m []uint32) []byte {
	dst = append(dst, `{"embedding":[`...)
	return appendMappingTail(dst, m)
}

// appendBatchEmbeddingLine appends {"index":i,"embedding":[m...]}\n.
func appendBatchEmbeddingLine(dst []byte, index int, m []uint32) []byte {
	dst = append(dst, `{"index":`...)
	dst = strconv.AppendInt(dst, int64(index), 10)
	dst = append(dst, `,"embedding":[`...)
	return appendMappingTail(dst, m)
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
	started   bool // header committed, first line flushed
	sinceTick int  // lines appended since the clock was last read
	lastFlush time.Time
	err       error
}

func newNDJSONStream(w http.ResponseWriter) *ndjsonStream {
	return &ndjsonStream{
		w:  w,
		rc: http.NewResponseController(w),
		// Room for the line that crosses the threshold, so steady-state
		// appends never grow the buffer.
		buf: make([]byte, 0, streamFlushBytes+(4<<10)),
	}
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

// embeddingSink is the /match?stream=1 per-embedding callback. The
// service serializes the calls for one request, so the line buffer
// needs no lock; only the finished line goes through writeLine.
func (s *ndjsonStream) embeddingSink() func(m []uint32) bool {
	var line []byte
	return func(m []uint32) bool {
		line = appendEmbeddingLine(line[:0], m)
		return s.writeLine(line)
	}
}

// batchEmbeddingSink is the same for item index of a streamed batch:
// items of different groups call their sinks concurrently, each
// encoding into its own buffer outside the stream's lock.
func (s *ndjsonStream) batchEmbeddingSink(index int) func(m []uint32) bool {
	var line []byte
	return func(m []uint32) bool {
		line = appendBatchEmbeddingLine(line[:0], index, m)
		return s.writeLine(line)
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

// finish flushes what is buffered and lifts the write deadline, which
// would otherwise outlive the handler on a keep-alive connection and
// fail a later response.
func (s *ndjsonStream) finish() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err == nil && len(s.buf) > 0 {
		s.flushLocked()
	}
	_ = s.rc.SetWriteDeadline(time.Time{}) // unsupported or already broken: nothing to lift
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
