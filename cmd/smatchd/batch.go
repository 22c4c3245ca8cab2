package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"time"

	"subgraphmatching/internal/core"
	"subgraphmatching/internal/graph"
	"subgraphmatching/internal/service"
)

// maxBatchItems bounds one /match/batch request. Large enough for the
// amortization to saturate (the per-item overhead curve is flat past a
// few hundred), small enough that a single request cannot queue
// unbounded work.
const maxBatchItems = 1024

// batchItemRequest is one item of the /match/batch JSON body. The query
// graph travels inline in the t/v/e text format; the scalar knobs mirror
// the /match query parameters.
type batchItemRequest struct {
	Graph    string `json:"graph"`
	Query    string `json:"query"`
	Algo     string `json:"algo,omitempty"`
	Limit    uint64 `json:"limit,omitempty"`
	Timeout  string `json:"timeout,omitempty"`
	Parallel int    `json:"parallel,omitempty"`
	Workers  int    `json:"workers,omitempty"`
	NoCache  bool   `json:"no_cache,omitempty"`
	// Explain attaches the EXPLAIN/ANALYZE profile to this item's
	// result — the batch form of /match?explain=1.
	Explain bool `json:"explain,omitempty"`
}

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

// toRequest converts one wire item, reporting the first bad field.
func (bi *batchItemRequest) toRequest() (service.Request, error) {
	req := service.Request{Graph: bi.Graph, MaxEmbeddings: bi.Limit,
		Parallel: bi.Parallel, Workers: bi.Workers, NoCache: bi.NoCache,
		Profile: bi.Explain}
	if req.Graph == "" {
		return req, fmt.Errorf("missing required field graph")
	}
	req.Algorithm = core.Optimized
	if bi.Algo != "" {
		algo, err := core.ParseAlgorithm(bi.Algo)
		if err != nil {
			return req, err
		}
		req.Algorithm = algo
	}
	if bi.Timeout != "" {
		d, err := time.ParseDuration(bi.Timeout)
		if err != nil {
			return req, fmt.Errorf("bad timeout %q", bi.Timeout)
		}
		req.TimeLimit = d
	}
	if bi.Parallel < 0 || bi.Parallel > maxWorkersParam {
		return req, fmt.Errorf("bad parallel %d (want 0..%d)", bi.Parallel, maxWorkersParam)
	}
	if bi.Workers < 0 || bi.Workers > maxWorkersParam {
		return req, fmt.Errorf("bad workers %d (want 0..%d)", bi.Workers, maxWorkersParam)
	}
	var err error
	req.Query, err = graph.Parse(strings.NewReader(bi.Query))
	if err != nil {
		return req, err
	}
	return req, nil
}

// matchBatch serves POST /match/batch: a JSON array of items, run as
// one service batch (grouped admission, one plan resolution per
// distinct query, within-batch dedup). Items fail independently — a bad
// item yields an indexed error entry with its /match-equivalent status
// code, never a failed batch. With ?stream=1 the response is NDJSON:
// interleaved {"index":i,"embedding":[...]} lines as groups enumerate
// concurrently, then one indexed result (or error) line per item.
func (s *server) matchBatch(w http.ResponseWriter, r *http.Request) {
	var items []batchItemRequest
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

	// Parse every item up front; parse failures become indexed errors
	// and only the valid remainder is submitted.
	out := make([]batchResultItem, len(items))
	reqs := make([]service.Request, 0, len(items))
	submitted := make([]int, 0, len(items)) // submitted position -> item index
	for i := range items {
		out[i].Index = i
		req, err := items[i].toRequest()
		if err != nil {
			out[i].Error = err.Error()
			out[i].Status = statusFor(err)
			continue
		}
		reqs = append(reqs, req)
		submitted = append(submitted, i)
	}

	if r.URL.Query().Get("stream") == "1" {
		s.matchBatchStream(w, r, reqs, submitted, out)
		return
	}
	withTrace := r.URL.Query().Get("trace") == "1"
	if len(reqs) > 0 {
		results, err := s.svc.SubmitBatch(r.Context(), reqs)
		if err != nil {
			httpError(w, err)
			return
		}
		for pos, br := range results {
			i := submitted[pos]
			if br.Err != nil {
				out[i].Error = br.Err.Error()
				out[i].Status = statusFor(br.Err)
				continue
			}
			mr := toMatchResult(br.Resp, withTrace)
			out[i].Result = &mr
		}
	}
	errs := 0
	for i := range out {
		if out[i].Error != "" {
			errs++
		}
	}
	writeJSON(w, http.StatusOK, batchResponse{Items: len(items), Errors: errs, Results: out})
}

// matchBatchStream is the NDJSON variant, written through the same
// ndjsonStream as /match?stream=1. Per-item failures are inline indexed
// lines, exactly like the non-streaming envelope's error entries, so
// the response is always a 200.
func (s *server) matchBatchStream(w http.ResponseWriter, r *http.Request, reqs []service.Request, submitted []int, out []batchResultItem) {
	withTrace := r.URL.Query().Get("trace") == "1"
	stream := newNDJSONStream(w)

	for pos := range reqs {
		reqs[pos].OnMatch = stream.batchEmbeddingSink(submitted[pos])
	}

	var results []service.BatchResult
	if len(reqs) > 0 {
		var err error
		results, err = s.svc.SubmitBatch(r.Context(), reqs)
		if err != nil {
			// Whole-batch failure: fan the error out to every submitted
			// item's line.
			for _, i := range submitted {
				out[i].Error = err.Error()
				out[i].Status = statusFor(err)
			}
		}
	}
	for pos, br := range results {
		i := submitted[pos]
		if br.Err != nil {
			out[i].Error = br.Err.Error()
			out[i].Status = statusFor(br.Err)
			continue
		}
		mr := toMatchResult(br.Resp, withTrace)
		out[i].Result = &mr
	}
	for i := range out {
		stream.writeJSON(out[i])
	}
	stream.finish()
}
