package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"subgraphmatching/internal/graph"
)

// matchReply is the part of a /match result the harness reads.
type matchReply struct {
	Embeddings   uint64 `json:"embeddings"`
	PreprocessNS int64  `json:"preprocess_ns"`
	EnumerateNS  int64  `json:"enumerate_ns"`
	QueueWaitNS  int64  `json:"queue_wait_ns"`
}

// op is the outcome of one request.
type op struct {
	OK      bool
	Refused bool          // 503
	Err     string        // first line of what went wrong
	Lat     time.Duration // send to last body byte
	TTFB    time.Duration // send to response headers
	Bytes   int           // response body size
	Reply   matchReply
}

// tally counts every request the harness sends, timed or not. The
// harness never retries: one send, one outcome.
type tally struct {
	Attempted, Failed, Refused int
	FirstErr                   string
}

func (t *tally) add(ops []op) {
	for _, o := range ops {
		t.Attempted++
		if o.OK {
			continue
		}
		t.Failed++
		if o.Refused {
			t.Refused++
		}
		if t.FirstErr == "" {
			t.FirstErr = o.Err
		}
	}
}

// client drives one daemon over a fixed number of keep-alive
// connections, one http.Client each so a connection is never shared.
type client struct {
	base    string
	queries []query
	data    *graph.Graph
	clients []*http.Client
	bufs    []bytes.Buffer
}

func newClient(base string, queries []query, data *graph.Graph, nConns int) *client {
	c := &client{base: base, queries: queries, data: data, bufs: make([]bytes.Buffer, nConns)}
	for i := 0; i < nConns; i++ {
		c.clients = append(c.clients, &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 1,
			MaxConnsPerHost:     1,
			DisableCompression:  true,
		}})
	}
	return c
}

func (c *client) close() {
	for _, hc := range c.clients {
		hc.CloseIdleConnections()
	}
}

// pass sends seq as a closed loop: each connection takes the next
// unsent request when its previous one completes. expect[q] is the
// embedding count query q must report; with validate set every
// streamed embedding is additionally checked against the data graph.
func (c *client) pass(seq []int32, params string, expect []uint64, stream, validate bool) ([]op, time.Duration) {
	ops := make([]op, len(seq))
	var (
		next atomic.Int64
		wg   sync.WaitGroup
	)
	start := time.Now()
	for w := range c.clients {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(seq) {
					return
				}
				qi := seq[i]
				ops[i] = c.do(w, c.queries[qi], params, expect[qi], stream, validate)
			}
		}(w)
	}
	wg.Wait()
	return ops, time.Since(start)
}

func fail(o op, format string, args ...any) op {
	o.OK = false
	o.Err = fmt.Sprintf(format, args...)
	return o
}

// do sends one request on connection w and checks its response against
// the oracle. Anything but a 200 with the expected count is a failed
// operation.
func (c *client) do(w int, q query, params string, expect uint64, stream, validate bool) op {
	var o op
	req, err := http.NewRequest(http.MethodPost, c.base+"/match?"+params, strings.NewReader(q.Text))
	if err != nil {
		return fail(o, "build request: %v", err)
	}
	buf := &c.bufs[w]
	buf.Reset()
	t0 := time.Now()
	resp, err := c.clients[w].Do(req)
	if err != nil {
		return fail(o, "transport: %v", err)
	}
	o.TTFB = time.Since(t0)
	_, err = buf.ReadFrom(resp.Body)
	o.Lat = time.Since(t0)
	resp.Body.Close()
	o.Bytes = buf.Len()
	if err != nil {
		return fail(o, "transport: read body: %v", err)
	}
	if resp.StatusCode != http.StatusOK {
		o.Refused = resp.StatusCode == http.StatusServiceUnavailable
		return fail(o, "status %d: %s", resp.StatusCode, firstLine(buf.Bytes()))
	}
	body := buf.Bytes()
	if stream {
		// NDJSON: embedding lines, then one {"result":...} line.
		body = bytes.TrimSuffix(body, []byte("\n"))
		last := bytes.LastIndexByte(body, '\n')
		lines := uint64(bytes.Count(body, []byte("\n")))
		var tail struct {
			Result *matchReply `json:"result"`
			Error  string      `json:"error"`
		}
		if err := json.Unmarshal(body[last+1:], &tail); err != nil || tail.Result == nil {
			return fail(o, "stream ended without a result line: %s %s", tail.Error, firstLine(body[last+1:]))
		}
		o.Reply = *tail.Result
		if lines != o.Reply.Embeddings {
			return fail(o, "oracle: %d embedding lines, result reports %d", lines, o.Reply.Embeddings)
		}
		if validate {
			if err := c.validateStream(q, body[:last+1]); err != nil {
				return fail(o, "oracle: %v", err)
			}
		}
	} else if err := json.Unmarshal(body, &o.Reply); err != nil {
		return fail(o, "decode result: %v", err)
	}
	if o.Reply.Embeddings != expect {
		return fail(o, "oracle: %s query reports %d embeddings, expected %d", q.Class, o.Reply.Embeddings, expect)
	}
	o.OK = true
	return o
}

// validateStream checks every embedding line of an NDJSON body.
func (c *client) validateStream(q query, lines []byte) error {
	dec := json.NewDecoder(bytes.NewReader(lines))
	for n := 0; ; n++ {
		var line struct {
			Embedding []uint32 `json:"embedding"`
		}
		if err := dec.Decode(&line); err == io.EOF {
			return nil
		} else if err != nil {
			return fmt.Errorf("embedding line %d: %v", n, err)
		}
		if err := validEmbedding(q.G, c.data, line.Embedding); err != nil {
			return fmt.Errorf("embedding line %d: %v", n, err)
		}
	}
}

func firstLine(b []byte) string {
	if i := bytes.IndexByte(b, '\n'); i >= 0 {
		b = b[:i]
	}
	if len(b) > 200 {
		b = b[:200]
	}
	return string(b)
}
