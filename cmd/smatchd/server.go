package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"net/url"
	"strconv"
	"time"

	"subgraphmatching/internal/core"
	"subgraphmatching/internal/graph"
	"subgraphmatching/internal/obs"
	"subgraphmatching/internal/service"
	"subgraphmatching/internal/store"
)

// maxQueryBody bounds a /match or /graphs request body. Query graphs
// are small by nature (the paper's largest has 32 vertices); data
// graphs get a far larger allowance.
const (
	maxQueryBody = 4 << 20 // 4 MiB
	maxGraphBody = 1 << 30 // 1 GiB
)

// maxParallelParam bounds the parallel= parameter at the front door.
// The service additionally clamps admitted requests to its MaxInFlight
// budget; this just rejects nonsense (negative or absurd values) with a
// 400 before any work happens.
const maxParallelParam = 4096

// graphAdmin is the registration surface the handlers mutate graphs
// through. Without persistence it is the service itself (serviceAdmin);
// with -data-dir it is the store.Manager, which snapshots and logs
// every operation before acknowledging it.
type graphAdmin interface {
	RegisterGraph(name string, g *graph.Graph, replace bool) (service.GraphInfo, error)
	RegisterSnapshot(name string, data []byte, replace bool) (service.GraphInfo, error)
	UnregisterGraph(name string) error
}

// serviceAdmin adapts the bare service to graphAdmin for the
// non-persistent configuration.
type serviceAdmin struct{ svc *service.Service }

func (a serviceAdmin) RegisterGraph(name string, g *graph.Graph, replace bool) (service.GraphInfo, error) {
	return a.svc.RegisterGraph(name, g, replace)
}

func (a serviceAdmin) RegisterSnapshot(name string, data []byte, replace bool) (service.GraphInfo, error) {
	g, _, err := store.Decode(data, store.DecodeOptions{ZeroCopy: true})
	if err != nil {
		return service.GraphInfo{}, err
	}
	return a.svc.RegisterGraph(name, g, replace)
}

func (a serviceAdmin) UnregisterGraph(name string) error {
	_, err := a.svc.UnregisterGraph(name)
	return err
}

// server adapts a service.Service to HTTP; transport concerns (JSON,
// status codes, streaming) live here and nowhere else.
type server struct {
	svc   *service.Service
	admin graphAdmin
	// store, when non-nil, is the durable graph store behind admin;
	// /healthz reports its recovery and occupancy state.
	store *store.Manager
	// batcher, when non-nil, coalesces non-streaming /match requests
	// into SubmitBatch calls (the -batch-window/-batch-max flags).
	batcher *service.Batcher
}

// serverOptions selects the optional diagnostic surfaces.
type serverOptions struct {
	// pprof mounts /debug/pprof. Off by default: the profiling
	// endpoints expose goroutine stacks and allow CPU captures, which
	// is an operator decision, not a default.
	pprof bool
	// batchWindow, when positive, routes non-streaming /match requests
	// through a coalescing batcher that flushes every batchWindow (or at
	// batchMax items). Off by default: it adds up to batchWindow of
	// latency to every singleton request.
	batchWindow time.Duration
	batchMax    int
	// store routes graph registration through the durable store
	// (snapshots + WAL) and surfaces its state on /healthz.
	store *store.Manager
}

// newServer builds the smatchd handler — exported shape so tests can
// mount it on httptest.Server.
func newServer(svc *service.Service, opts serverOptions) http.Handler {
	s := &server{svc: svc, store: opts.store}
	if opts.store != nil {
		s.admin = opts.store
	} else {
		s.admin = serviceAdmin{svc: svc}
	}
	if opts.batchWindow > 0 {
		s.batcher = svc.NewBatcher(service.BatcherConfig{
			MaxWait:  opts.batchWindow,
			MaxBatch: opts.batchMax,
		})
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.healthz)
	mux.HandleFunc("GET /graphs", s.listGraphs)
	mux.HandleFunc("PUT /graphs/{name}", s.putGraph)
	mux.HandleFunc("DELETE /graphs/{name}", s.deleteGraph)
	mux.HandleFunc("POST /match", s.match)
	mux.HandleFunc("POST /match/batch", s.matchBatch)
	mux.HandleFunc("POST /explain", s.explain)
	mux.HandleFunc("GET /stats", s.stats)
	mux.HandleFunc("GET /metrics", s.metrics)
	mux.HandleFunc("GET /debug/tracez", s.tracez)
	mux.HandleFunc("GET /debug/requests", s.debugRequests)
	if opts.pprof {
		// Explicit registrations: importing net/http/pprof for its
		// side effect would mount the handlers on the default mux,
		// which smatchd does not serve.
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// statusFor maps the service's typed errors onto status codes — shared
// between whole-request failures (httpError) and per-item statuses in a
// batch response.
func statusFor(err error) int {
	switch {
	case errors.Is(err, service.ErrUnknownGraph):
		return http.StatusNotFound
	case errors.Is(err, service.ErrOverloaded), errors.Is(err, service.ErrClosed):
		// Includes ErrQueueFull, ErrQueueTimeout and ErrTenantSaturated:
		// all retryable overload, all 503 + Retry-After.
		return http.StatusServiceUnavailable
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		// The client went away; the status is moot but 499-style
		// accounting helps log readers.
		return 499
	case errors.Is(err, service.ErrDuplicateGraph):
		return http.StatusConflict
	default:
		// Validation errors: nil/empty/disconnected/oversized queries,
		// unknown labels, bad graph text, bad parameters.
		return http.StatusBadRequest
	}
}

// httpError maps the service's typed errors onto status codes.
func httpError(w http.ResponseWriter, err error) {
	status := statusFor(err)
	if status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", "1")
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// healthResponse is the /healthz readiness report: enough occupancy
// detail for a load balancer or operator to judge the instance without
// pulling the full /stats snapshot.
type healthResponse struct {
	Status   string        `json:"status"`
	Uptime   time.Duration `json:"uptime_ns"`
	Graphs   int           `json:"graphs"`
	Capacity int64         `json:"capacity"`
	InUse    int64         `json:"in_use"`
	Queued   int           `json:"queued"`
	// Store reports the durable store's recovery and occupancy state;
	// absent when the daemon runs without -data-dir.
	Store *storeHealth `json:"store,omitempty"`
}

// storeHealth is the /healthz durability section.
type storeHealth struct {
	Dir        string              `json:"dir"`
	MMap       bool                `json:"mmap"`
	Snapshots  int                 `json:"snapshots"`
	SnapBytes  int64               `json:"snapshot_bytes"`
	WALBytes   int64               `json:"wal_bytes"`
	WALRecords int                 `json:"wal_records"`
	Recovery   store.RecoveryStats `json:"recovery"`
}

func (s *server) healthz(w http.ResponseWriter, r *http.Request) {
	st := s.svc.Stats()
	resp := healthResponse{
		Status:   "ok",
		Uptime:   st.Uptime,
		Graphs:   len(st.Graphs),
		Capacity: st.Admission.Capacity,
		InUse:    st.Admission.InUse,
		Queued:   st.Admission.Queued,
	}
	if s.store != nil {
		sst := s.store.Stats()
		resp.Store = &storeHealth{
			Dir:        sst.Dir,
			MMap:       sst.MMap,
			Snapshots:  sst.Snapshots,
			SnapBytes:  sst.SnapBytes,
			WALBytes:   sst.WALBytes,
			WALRecords: sst.WALRecords,
			Recovery:   sst.Recovery,
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// metrics serves the registry in the Prometheus text exposition format.
func (s *server) metrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.svc.Metrics().WritePrometheus(w)
}

func (s *server) listGraphs(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.svc.Graphs())
}

// snapshotContentType marks a PUT /graphs body carrying the binary
// snapshot format instead of the t/v/e text — the upload skips edge-
// list parsing entirely and, under a durable store, persists the bytes
// verbatim.
const snapshotContentType = "application/x-smatch-snapshot"

func (s *server) putGraph(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	replace := r.URL.Query().Get("replace") == "1"
	var (
		info service.GraphInfo
		err  error
	)
	if r.Header.Get("Content-Type") == snapshotContentType {
		var data []byte
		data, err = io.ReadAll(http.MaxBytesReader(w, r.Body, maxGraphBody))
		if err == nil {
			info, err = s.admin.RegisterSnapshot(name, data, replace)
		}
	} else {
		var g *graph.Graph
		g, err = graph.Parse(http.MaxBytesReader(w, r.Body, maxGraphBody))
		if err == nil {
			info, err = s.admin.RegisterGraph(name, g, replace)
		}
	}
	if err != nil {
		httpError(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, info)
}

func (s *server) deleteGraph(w http.ResponseWriter, r *http.Request) {
	if err := s.admin.UnregisterGraph(r.PathValue("name")); err != nil {
		httpError(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *server) stats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.svc.Stats())
}

// matchResult is the JSON shape of one query's outcome. Trace carries
// the request's span tree when the client asked for it with ?trace=1.
type matchResult struct {
	Embeddings uint64        `json:"embeddings"`
	Nodes      uint64        `json:"nodes"`
	TimedOut   bool          `json:"timed_out"`
	LimitHit   bool          `json:"limit_hit"`
	CacheHit   bool          `json:"cache_hit"`
	Preprocess time.Duration `json:"preprocess_ns"`
	Enumerate  time.Duration `json:"enumerate_ns"`
	QueueWait  time.Duration `json:"queue_wait_ns"`
	// Kernels is the plan's intersection-kernel mix — pairwise kernel
	// executions by kernel name — absent for non-intersection locals.
	Kernels map[string]uint64 `json:"kernels,omitempty"`
	Trace   *obs.Span         `json:"trace,omitempty"`
	// Profile is the EXPLAIN/ANALYZE breakdown (filter-stage reduction,
	// matching order, per-depth enumeration heat), present when the
	// request asked for it with ?explain=1.
	Profile *core.Profile `json:"profile,omitempty"`
}

func toMatchResult(resp *service.Response, withTrace bool) matchResult {
	res := matchResult{
		Embeddings: resp.Result.Embeddings,
		Nodes:      resp.Result.Nodes,
		TimedOut:   resp.Result.TimedOut,
		LimitHit:   resp.Result.LimitHit,
		CacheHit:   resp.CacheHit,
		Preprocess: resp.Result.PreprocessTime(),
		Enumerate:  resp.Result.EnumTime,
		QueueWait:  resp.QueueWait,
		Kernels:    resp.Result.Kernels.Map(),
		Profile:    resp.Result.Explain,
	}
	if withTrace {
		res.Trace = resp.Result.Trace
	}
	return res
}

// matchRequest is the wire form of one matching request, whichever way
// it arrived: /match and /explain fill it from query parameters (the
// query graph, in the t/v/e text format, is the body), each
// /match/batch item from its JSON object (the query travels inline, and
// no_cache exists only there). Numbers stay text until toRequest — the
// one way from here to a service.Request — judges them.
type matchRequest struct {
	Graph    string      `json:"graph"`
	Query    string      `json:"query"`
	Algo     string      `json:"algo,omitempty"`
	Limit    json.Number `json:"limit,omitempty"`
	Timeout  string      `json:"timeout,omitempty"`
	Parallel json.Number `json:"parallel,omitempty"`
	NoCache  bool        `json:"no_cache,omitempty"`
	// Explain attaches the EXPLAIN/ANALYZE profile to the result
	// (?explain=1).
	Explain bool `json:"explain,omitempty"`
}

// requestFromParams decodes a /match or /explain request.
func requestFromParams(w http.ResponseWriter, r *http.Request, params url.Values) (service.Request, error) {
	m := matchRequest{
		Graph:    params.Get("graph"),
		Algo:     params.Get("algo"),
		Limit:    json.Number(params.Get("limit")),
		Timeout:  params.Get("timeout"),
		Parallel: json.Number(params.Get("parallel")),
		Explain:  params.Get("explain") == "1",
	}
	return m.toRequest(http.MaxBytesReader(w, r.Body, maxQueryBody))
}

// toRequest validates the wire form and converts it, reporting the
// first bad field. query supplies the query graph's text: the HTTP body
// or the item's inline field.
func (m *matchRequest) toRequest(query io.Reader) (service.Request, error) {
	req := service.Request{Graph: m.Graph, Algorithm: core.Optimized, NoCache: m.NoCache, Profile: m.Explain}
	if m.Graph == "" {
		return req, fmt.Errorf("missing required parameter graph")
	}
	var err error
	if m.Algo != "" {
		if req.Algorithm, err = core.ParseAlgorithm(m.Algo); err != nil {
			return req, err
		}
	}
	if m.Limit != "" {
		if req.MaxEmbeddings, err = strconv.ParseUint(string(m.Limit), 10, 64); err != nil {
			return req, fmt.Errorf("bad limit %q", m.Limit)
		}
	}
	if m.Timeout != "" {
		if req.TimeLimit, err = time.ParseDuration(m.Timeout); err != nil {
			return req, fmt.Errorf("bad timeout %q", m.Timeout)
		}
	}
	if m.Parallel != "" {
		n, err := strconv.Atoi(string(m.Parallel))
		if err != nil || n < 0 || n > maxParallelParam {
			return req, fmt.Errorf("bad parallel %q (want 0..%d)", m.Parallel, maxParallelParam)
		}
		req.Parallel = n
	}
	req.Query, err = graph.Parse(query)
	return req, err
}

func (s *server) match(w http.ResponseWriter, r *http.Request) {
	params := r.URL.Query()
	req, err := requestFromParams(w, r, params)
	if err != nil {
		httpError(w, err)
		return
	}
	withTrace := params.Get("trace") == "1"
	if params.Get("stream") == "1" {
		s.matchStream(w, r, req, withTrace)
		return
	}
	var resp *service.Response
	if s.batcher != nil {
		// Coalesce singleton requests: concurrent arrivals of the
		// same hot query share one admission grant, plan lookup, and
		// execution.
		resp, err = s.batcher.Submit(r.Context(), req)
	} else {
		resp, err = s.svc.Submit(r.Context(), req)
	}
	if err != nil {
		httpError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, toMatchResult(resp, withTrace))
}

// matchStream writes embeddings as NDJSON while the search runs (see
// ndjsonStream for the line encoding and flush rule). The sink executes
// inside enumeration, so every write applies backpressure to the
// search; a failed write (client gone or stalled) aborts it. The 200
// status is committed lazily at the first embedding, so everything that
// fails before enumeration streams anything — unknown graph,
// validation, admission overload — still maps to a real status code via
// httpError; only a mid-stream failure degrades to a final
// {"error": ...} line.
func (s *server) matchStream(w http.ResponseWriter, r *http.Request, req service.Request, withTrace bool) {
	out := newNDJSONStream(w)
	resp, err := s.svc.Stream(r.Context(), req, out.runSink([]byte(embeddingHead)))
	switch {
	case err == nil:
		out.writeJSON(map[string]matchResult{"result": toMatchResult(resp, withTrace)})
	case !out.committed():
		httpError(w, err)
		return
	default:
		out.writeJSON(map[string]string{"error": err.Error()})
	}
	out.finish()
}
