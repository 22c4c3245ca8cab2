package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"

	"subgraphmatching/internal/service"
)

// maxBatchItems bounds one /match/batch request. Large enough for the
// amortization to saturate (the per-item overhead curve is flat past a
// few hundred), small enough that a single request cannot queue
// unbounded work.
const maxBatchItems = 1024

// batchResultItem is one item's outcome in the /match/batch response.
// Index is the item's position in the submitted array; exactly one of
// Result and Error is present, and failed items carry the status code
// the same request would have gotten from /match.
type batchResultItem struct {
	Index  int          `json:"index"`
	Result *matchResult `json:"result,omitempty"`
	Error  string       `json:"error,omitempty"`
	Status int          `json:"status,omitempty"`
}

// batchResponse is the non-streaming /match/batch envelope.
type batchResponse struct {
	Items   int               `json:"items"`
	Errors  int               `json:"errors"`
	Results []batchResultItem `json:"results"`
}

// fail records the item's error with the status code the same request
// would have gotten from /match.
func (it *batchResultItem) fail(err error) {
	it.Error = err.Error()
	it.Status = statusFor(err)
}

// matchBatch serves POST /match/batch: a JSON array of items, run as
// one service batch (grouped admission, one plan resolution per
// distinct query, within-batch dedup). Items fail independently — a bad
// item yields an indexed error entry with its /match-equivalent status
// code, never a failed batch. With ?stream=1 the response is NDJSON,
// written through the same ndjsonStream as /match?stream=1:
// interleaved {"index":i,"embedding":[...]} lines as groups enumerate
// concurrently, then one indexed result (or error) line per item — so
// the streamed response is always a 200.
func (s *server) matchBatch(w http.ResponseWriter, r *http.Request) {
	var items []matchRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxGraphBody))
	if err := dec.Decode(&items); err != nil {
		httpError(w, fmt.Errorf("bad batch body: %w", err))
		return
	}
	if len(items) == 0 {
		httpError(w, fmt.Errorf("empty batch"))
		return
	}
	if len(items) > maxBatchItems {
		httpError(w, fmt.Errorf("batch of %d items exceeds the limit of %d", len(items), maxBatchItems))
		return
	}
	params := r.URL.Query()
	var stream *ndjsonStream
	if params.Get("stream") == "1" {
		stream = newNDJSONStream(w)
	}

	// Parse every item up front; parse failures become indexed errors
	// and only the valid remainder is submitted.
	out := make([]batchResultItem, len(items))
	reqs := make([]service.Request, 0, len(items))
	submitted := make([]int, 0, len(items)) // submitted position -> item index
	for i := range items {
		out[i].Index = i
		req, err := items[i].toRequest(strings.NewReader(items[i].Query))
		if err != nil {
			out[i].fail(err)
			continue
		}
		if stream != nil {
			req.OnRun = stream.runSink(appendBatchEmbeddingHead(nil, i))
		}
		reqs = append(reqs, req)
		submitted = append(submitted, i)
	}

	if len(reqs) > 0 {
		results, err := s.svc.SubmitBatch(r.Context(), reqs)
		if err != nil {
			if stream == nil {
				httpError(w, err)
				return
			}
			// Whole-batch failure: the streamed response stays a 200 and
			// carries the error on every submitted item's line.
			for _, i := range submitted {
				out[i].fail(err)
			}
		}
		withTrace := params.Get("trace") == "1"
		for pos, br := range results {
			if br.Err != nil {
				out[submitted[pos]].fail(br.Err)
				continue
			}
			mr := toMatchResult(br.Resp, withTrace)
			out[submitted[pos]].Result = &mr
		}
	}

	if stream != nil {
		for i := range out {
			stream.writeJSON(out[i])
		}
		stream.finish()
		return
	}
	errs := 0
	for i := range out {
		if out[i].Error != "" {
			errs++
		}
	}
	writeJSON(w, http.StatusOK, batchResponse{Items: len(items), Errors: errs, Results: out})
}
