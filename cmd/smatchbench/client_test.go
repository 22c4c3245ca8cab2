package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"subgraphmatching/internal/graph"
)

// A stand-in for smatchd's /match: the limit parameter selects the
// behaviour under test.
func fakeMatch(w http.ResponseWriter, r *http.Request) {
	stream := r.URL.Query().Get("stream") == "1"
	switch r.URL.Query().Get("limit") {
	case "1": // correct answers
		if stream {
			fmt.Fprint(w, "{\"embedding\":[0,1,2]}\n{\"embedding\":[2,3,0]}\n{\"result\":{\"embeddings\":2,\"enumerate_ns\":500}}\n")
		} else {
			fmt.Fprint(w, `{"embeddings": 2, "preprocess_ns": 100, "enumerate_ns": 500, "queue_wait_ns": 7}`)
		}
	case "2": // overload
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprint(w, `{"error":"service: overloaded"}`)
	case "3": // a stream that loses an embedding line
		fmt.Fprint(w, "{\"embedding\":[0,1,2]}\n{\"result\":{\"embeddings\":2}}\n")
	case "4": // a stream cut off by an error
		fmt.Fprint(w, "{\"embedding\":[0,1,2]}\n{\"error\":\"context canceled\"}\n")
	case "5": // a streamed embedding that is not one
		fmt.Fprint(w, "{\"embedding\":[0,1,2]}\n{\"embedding\":[1,0,3]}\n{\"result\":{\"embeddings\":2}}\n")
	}
}

func TestClientChecksEveryResponse(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(fakeMatch))
	defer ts.Close()
	// The square with a chord and the 5-6-5 triangle of TestValidEmbedding.
	g := graph.MustFromEdges([]graph.Label{5, 6, 5, 6}, [][2]graph.Vertex{{0, 1}, {1, 2}, {2, 3}, {3, 0}, {0, 2}})
	q := query{Text: "t 3 3\n", Class: "3-test",
		G: graph.MustFromEdges([]graph.Label{5, 6, 5}, [][2]graph.Vertex{{0, 1}, {1, 2}, {0, 2}})}
	c := newClient(ts.URL, []query{q}, g, 1)
	defer c.close()

	for _, tc := range []struct {
		name      string
		limit     int
		expect    uint64
		stream    bool
		validate  bool
		ok        bool
		refused   bool
		errPrefix string
	}{
		{"count matches", 1, 2, false, false, true, false, ""},
		{"count differs from the oracle", 1, 3, false, false, false, false, "oracle:"},
		{"stream matches and validates", 1, 2, true, true, true, false, ""},
		{"stream count differs from the oracle", 1, 5, true, false, false, false, "oracle:"},
		{"503 is a refusal", 2, 2, false, false, false, true, "status 503"},
		{"stream lost a line", 3, 2, true, false, false, false, "oracle:"},
		{"stream ended in an error line", 4, 1, true, false, false, false, "stream ended without a result"},
		{"streamed embedding maps an edge to a non-edge", 5, 2, true, true, false, false, "oracle:"},
		{"the same stream passes when embeddings are not validated", 5, 2, true, false, true, false, ""},
	} {
		params := fmt.Sprintf("graph=g&limit=%d", tc.limit)
		if tc.stream {
			params += "&stream=1"
		}
		o := c.do(0, q, params, tc.expect, tc.stream, tc.validate)
		if o.OK != tc.ok || o.Refused != tc.refused || !strings.HasPrefix(o.Err, tc.errPrefix) {
			t.Errorf("%s: ok=%v refused=%v err=%q; want ok=%v refused=%v err prefix %q",
				tc.name, o.OK, o.Refused, o.Err, tc.ok, tc.refused, tc.errPrefix)
		}
		if tc.ok && (o.Lat <= 0 || o.TTFB <= 0 || o.TTFB > o.Lat || o.Bytes == 0) {
			t.Errorf("%s: implausible measurement %+v", tc.name, o)
		}
	}

	// A dead server is a transport error, counted and never retried.
	ts.Close()
	ops, _ := c.pass([]int32{0, 0, 0}, "graph=g&limit=1", []uint64{2}, false, false)
	var tl tally
	tl.add(ops)
	if tl.Attempted != 3 || tl.Failed != 3 || tl.Refused != 0 || !strings.HasPrefix(tl.FirstErr, "transport:") {
		t.Errorf("tally against a dead server = %+v, want 3 attempted, 3 failed, transport error", tl)
	}
}
