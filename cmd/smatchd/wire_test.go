package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"subgraphmatching/internal/service"
)

// updateWire rewrites testdata/wire/responses.golden from the current
// daemon: go test ./cmd/smatchd -run TestWireCorpus -update. A change
// that means to alter the wire commits the rewritten file in its diff.
var updateWire = flag.Bool("update", false, "rewrite testdata/wire/responses.golden")

// wireRequest is one entry of testdata/wire/requests.json. The body is
// inline or, for the data graph, a file beside the list.
type wireRequest struct {
	Method   string `json:"method"`
	Path     string `json:"path"`
	Body     string `json:"body"`
	BodyFile string `json:"body_file"`
}

// TestWireCorpus replays the golden request list against a fresh daemon,
// one request at a time, and holds the normalised responses to
// testdata/wire/responses.golden: status, content type and body. What a
// run cannot repeat is taken out first (normaliseWire).
func TestWireCorpus(t *testing.T) {
	dir := filepath.Join("testdata", "wire")
	data, err := os.ReadFile(filepath.Join(dir, "requests.json"))
	if err != nil {
		t.Fatal(err)
	}
	var reqs []wireRequest
	if err := json.Unmarshal(data, &reqs); err != nil {
		t.Fatalf("requests.json: %v", err)
	}
	svc := service.New(service.Config{})
	defer svc.Close()
	ts := httptest.NewServer(newServer(svc, serverOptions{}))
	defer ts.Close()

	var out bytes.Buffer
	for i, r := range reqs {
		body := r.Body
		if r.BodyFile != "" {
			b, err := os.ReadFile(filepath.Join(dir, r.BodyFile))
			if err != nil {
				t.Fatal(err)
			}
			body = string(b)
		}
		resp, got := do(t, r.Method, ts.URL+r.Path, body)
		fmt.Fprintf(&out, "### %d %s %s\n%d %s\n", i+1, r.Method, r.Path, resp.StatusCode, resp.Header.Get("Content-Type"))
		norm, err := normaliseWire(r.Path, resp.Header.Get("Content-Type"), got)
		if err != nil {
			t.Fatalf("request %d %s %s: %v\n%s", i+1, r.Method, r.Path, err, got)
		}
		out.WriteString(norm)
	}

	golden := filepath.Join(dir, "responses.golden")
	if *updateWire {
		if err := os.WriteFile(golden, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		gotLines, wantLines := strings.Split(out.String(), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < max(len(gotLines), len(wantLines)); i++ {
			var g, w string
			if i < len(gotLines) {
				g = gotLines[i]
			}
			if i < len(wantLines) {
				w = wantLines[i]
			}
			if g != w {
				t.Fatalf("responses differ from %s at line %d:\n got: %s\nwant: %s", golden, i+1, g, w)
			}
		}
	}
}

// normaliseWire reduces a response body to what repeats from run to run
// and from build to build of the same wire:
//
//   - JSON: every *_ns field (durations), RegisteredAt (a timestamp) and
//     index_bytes (the size of the lazily built graph index, a property
//     of its layout) are dropped, and the rest is re-indented with keys
//     sorted;
//   - NDJSON: each line as JSON; a batch stream's lines are sorted,
//     because its groups enumerate concurrently;
//   - the /metrics exposition: its TYPE lines and the name and labels of
//     every sample, without values, sorted.
func normaliseWire(path, contentType, body string) (string, error) {
	switch {
	case body == "":
		return "", nil
	case strings.HasPrefix(contentType, "application/x-ndjson"):
		var lines []string
		for _, line := range strings.Split(strings.TrimSuffix(body, "\n"), "\n") {
			n, err := normaliseJSON(line, false)
			if err != nil {
				return "", err
			}
			lines = append(lines, n)
		}
		if strings.HasPrefix(path, "/match/batch") {
			slices.Sort(lines)
		}
		return strings.Join(lines, "\n") + "\n", nil
	case strings.HasPrefix(contentType, "application/json"):
		n, err := normaliseJSON(body, true)
		return n + "\n", err
	case strings.HasPrefix(contentType, "text/plain"):
		var series []string
		for _, line := range strings.Split(body, "\n") {
			switch {
			case strings.HasPrefix(line, "# TYPE "):
				series = append(series, line)
			case line != "" && !strings.HasPrefix(line, "#"):
				series = append(series, line[:strings.LastIndexByte(line, ' ')])
			}
		}
		slices.Sort(series)
		return strings.Join(slices.Compact(series), "\n") + "\n", nil
	}
	return body, nil
}

// normaliseJSON re-encodes one JSON value without its varying fields,
// indented or on one line.
func normaliseJSON(text string, indent bool) (string, error) {
	dec := json.NewDecoder(strings.NewReader(text))
	dec.UseNumber()
	var v any
	if err := dec.Decode(&v); err != nil {
		return "", err
	}
	v = stripVarying(v)
	var b []byte
	var err error
	if indent {
		b, err = json.MarshalIndent(v, "", "  ")
	} else {
		b, err = json.Marshal(v)
	}
	return string(b), err
}

func stripVarying(v any) any {
	switch x := v.(type) {
	case map[string]any:
		for k, e := range x {
			if strings.HasSuffix(k, "_ns") || k == "RegisteredAt" || k == "index_bytes" {
				delete(x, k)
				continue
			}
			x[k] = stripVarying(e)
		}
	case []any:
		for i, e := range x {
			x[i] = stripVarying(e)
		}
	}
	return v
}
