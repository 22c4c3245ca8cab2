package main

import (
	"bytes"
	"io"
	"net/http"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"sync"

	"subgraphmatching/internal/graph"
	"subgraphmatching/internal/intersect"
	"subgraphmatching/internal/service"
)

// queryParams are the query parameters /match, /explain and
// /match/batch read.
type queryParams struct {
	graph, algo, limit, timeout, parallel, explain, trace, stream, format string
}

// parseParams reads queryParams from a raw query string in one pass and
// without building url.Values: each field is what r.URL.Query().Get
// returns for its name — the unescaped value of the first key=value
// pair whose key unescapes to it, "" when there is none. Pairs that
// url.ParseQuery drops — one holding a semicolon, one with a bad escape
// — are skipped alike.
func parseParams(raw string) queryParams {
	var p queryParams
	var seen uint16
	for raw != "" {
		var pair string
		pair, raw, _ = strings.Cut(raw, "&")
		if pair == "" || strings.IndexByte(pair, ';') >= 0 {
			continue
		}
		k, v, _ := strings.Cut(pair, "=")
		k, err := unescape(k)
		if err != nil {
			continue
		}
		field, bit := p.field(k)
		if field == nil || seen&bit != 0 {
			continue
		}
		if v, err = unescape(v); err != nil {
			continue
		}
		*field, seen = v, seen|bit
	}
	return p
}

// field is the queryParams field named key and its bit in parseParams'
// seen set; nil for a parameter no handler reads.
func (p *queryParams) field(key string) (*string, uint16) {
	switch key {
	case "graph":
		return &p.graph, 1 << 0
	case "algo":
		return &p.algo, 1 << 1
	case "limit":
		return &p.limit, 1 << 2
	case "timeout":
		return &p.timeout, 1 << 3
	case "parallel":
		return &p.parallel, 1 << 4
	case "explain":
		return &p.explain, 1 << 5
	case "trace":
		return &p.trace, 1 << 6
	case "stream":
		return &p.stream, 1 << 7
	case "format":
		return &p.format, 1 << 8
	}
	return nil, 0
}

// unescape is url.QueryUnescape, which returns a string with neither
// '%' nor '+' unchanged.
func unescape(s string) (string, error) {
	for i := 0; i < len(s); i++ {
		if s[i] == '%' || s[i] == '+' {
			return url.QueryUnescape(s)
		}
	}
	return s, nil
}

// bodyBufs holds the buffers request bodies are read into. One that
// grew past maxPooledBody is dropped rather than kept.
var bodyBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

const maxPooledBody = 64 << 10

// readQuery reads the /match or /explain body, at most maxQueryBody
// bytes, and returns the query graph it holds, through the memo. A body
// that fails to read is parsed as it arrived — its bytes, then the read
// error — so the client gets graph.Parse's verdict on it exactly as if
// the body had been parsed as a stream.
func (s *server) readQuery(w http.ResponseWriter, r *http.Request) (*graph.Graph, error) {
	buf := bodyBufs.Get().(*bytes.Buffer)
	defer func() {
		if buf.Cap() <= maxPooledBody {
			buf.Reset()
			bodyBufs.Put(buf)
		}
	}()
	if _, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, maxQueryBody)); err != nil {
		return graph.Parse(io.MultiReader(bytes.NewReader(buf.Bytes()), errReader{err}))
	}
	return s.memo.parse(buf.Bytes())
}

// errReader is a reader that fails with err.
type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }

// jsonContentType is the Content-Type header value of a JSON reply,
// shared by every reply instead of a slice per Header().Set.
var jsonContentType = []string{"application/json"}

// replyBufs holds the buffers writeMatchReply encodes into.
var replyBufs = sync.Pool{New: func() any { b := make([]byte, 0, 512); return &b }}

// writeMatchReply writes the JSON reply of a /match that asked for
// neither a trace nor a profile: the bytes encoding/json writes for its
// matchResult, appended by hand.
func writeMatchReply(w http.ResponseWriter, resp *service.Response) {
	bp := replyBufs.Get().(*[]byte)
	b := appendMatchResult((*bp)[:0], resp)
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(http.StatusOK)
	w.Write(b)
	*bp = b
	replyBufs.Put(bp)
}

// kernelOrder lists the kernels by name, the order encoding/json writes
// a map's keys in.
var kernelOrder = func() []intersect.Kernel {
	ks := make([]intersect.Kernel, intersect.NumKernels)
	for i := range ks {
		ks[i] = intersect.Kernel(i)
	}
	slices.SortFunc(ks, func(a, b intersect.Kernel) int { return strings.Compare(a.String(), b.String()) })
	return ks
}()

// appendMatchResult appends toMatchResult(resp, false) as encoding/json
// encodes it, newline included, for a response without a profile. The
// kernel names are lower-case letters, which JSON quotes as they are.
func appendMatchResult(b []byte, resp *service.Response) []byte {
	res := resp.Result
	b = append(b, `{"embeddings":`...)
	b = strconv.AppendUint(b, res.Embeddings, 10)
	b = append(b, `,"nodes":`...)
	b = strconv.AppendUint(b, res.Nodes, 10)
	b = append(b, `,"timed_out":`...)
	b = strconv.AppendBool(b, res.TimedOut)
	b = append(b, `,"limit_hit":`...)
	b = strconv.AppendBool(b, res.LimitHit)
	b = append(b, `,"cache_hit":`...)
	b = strconv.AppendBool(b, resp.CacheHit)
	b = append(b, `,"preprocess_ns":`...)
	b = strconv.AppendInt(b, int64(res.PreprocessTime()), 10)
	b = append(b, `,"enumerate_ns":`...)
	b = strconv.AppendInt(b, int64(res.EnumTime), 10)
	b = append(b, `,"queue_wait_ns":`...)
	b = strconv.AppendInt(b, int64(resp.QueueWait), 10)
	sep := byte('{')
	for _, k := range kernelOrder {
		if n := res.Kernels[k]; n != 0 {
			if sep == '{' {
				b = append(b, `,"kernels":`...)
			}
			b = append(b, sep, '"')
			b = append(b, k.String()...)
			b = append(b, `":`...)
			b = strconv.AppendUint(b, n, 10)
			sep = ','
		}
	}
	if sep == ',' {
		b = append(b, '}')
	}
	return append(b, "}\n"...)
}
