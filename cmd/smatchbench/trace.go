package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"subgraphmatching/internal/candspace"
	"subgraphmatching/internal/core"
	"subgraphmatching/internal/filter"
	"subgraphmatching/internal/graph"
	"subgraphmatching/internal/intersect"
	"subgraphmatching/internal/order"
	"subgraphmatching/internal/service"
	"subgraphmatching/internal/store"
)

// span is one timed call into a layer. Spans of one request share
// Request and Rep; Parent is the ID of the span that caused this one,
// 0 for a root. Times are nanoseconds since the trace began. Counts
// hold the work tallies read at the same boundary.
type span struct {
	ID      int                `json:"id"`
	Parent  int                `json:"parent"`
	Request string             `json:"request"`
	Rep     int                `json:"rep"`
	Name    string             `json:"name"`
	StartNS int64              `json:"start_ns"`
	EndNS   int64              `json:"end_ns"`
	Counts  map[string]float64 `json:"counts,omitempty"`
}

// traceFile is the on-disk form of one workload's traced run.
type traceFile struct {
	Workload string `json:"workload"`
	Reps     int    `json:"reps"`
	Spans    []span `json:"spans"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) begin(parent int, request string, rep int, name string) int {
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Request: request, Rep: rep, Name: name})
	s := &t.spans[len(t.spans)-1]
	s.StartNS = int64(time.Since(t.t0))
	return s.ID
}

func (t *tracer) end(id int, counts map[string]float64) {
	t.spans[id-1].EndNS = int64(time.Since(t.t0))
	t.spans[id-1].Counts = counts
}

// traceReps is how often each request is traced; per-request times are
// medians over the repetitions.
const traceReps = 3

// traceWorkload replays the workload's query list in-process on one
// goroutine, a span around each exported layer call, writes the spans
// to path, and derives the per-layer table from that file.
func traceWorkload(w workload, in *inputs, path string) (map[string]metric, error) {
	tr := &tracer{t0: time.Now()}
	if err := traceData(tr, w, in, filepath.Dir(path)); err != nil {
		return nil, err
	}

	// The in-process service is primed to the workload's cache state:
	// warm workloads find every plan cached, the cold one bypasses the
	// cache on every request.
	svc := service.New(service.Config{})
	defer svc.Close()
	if _, err := svc.RegisterGraph("g", in.Graph, false); err != nil {
		return nil, err
	}
	if !w.Cold {
		for i := range in.Queries {
			if _, err := svc.Submit(context.Background(), submitRequest(w, in.Queries[i].G, nil)); err != nil {
				return nil, fmt.Errorf("trace: prime query %d: %w", i, err)
			}
		}
	}
	for rep := 0; rep < traceReps; rep++ {
		for i := range in.Queries {
			if err := traceRequest(tr, w, in, svc, i, rep); err != nil {
				return nil, fmt.Errorf("trace: %s/%d: %w", w.Name, i, err)
			}
		}
	}

	data, err := json.Marshal(traceFile{Workload: w.Name, Reps: traceReps, Spans: tr.spans})
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return nil, err
	}
	return layerTableFromFile(path)
}

// traceData records the spans that concern the data graph rather than
// a query: parsing its text, and the snapshot round trip.
func traceData(tr *tracer, w workload, in *inputs, dir string) error {
	req := w.Name + "/data"
	snap := filepath.Join(dir, "g20.snap")
	defer os.Remove(snap)
	for rep := 0; rep < traceReps; rep++ {
		s := tr.begin(0, req, rep, "graph.parse_data")
		if _, err := graph.Parse(bytes.NewReader(in.GraphText)); err != nil {
			return err
		}
		tr.end(s, nil)

		s = tr.begin(0, req, rep, "store.snapshot_write")
		_, size, err := store.WriteSnapshotFile(snap, in.Graph)
		if err != nil {
			return err
		}
		tr.end(s, map[string]float64{"bytes": float64(size), "edges": float64(in.Graph.NumEdges())})

		s = tr.begin(0, req, rep, "store.snapshot_open")
		opened, err := store.OpenSnapshot(snap, store.LoadOptions{})
		if err != nil {
			return err
		}
		tr.end(s, nil)
		opened.Close()
	}
	return nil
}

// streamSink mimics smatchd's NDJSON sink: encode each embedding into
// a buffered writer, flush every 64.
func streamSink() func([]uint32) bool {
	bw := bufio.NewWriter(io.Discard)
	enc := json.NewEncoder(bw)
	n := 0
	return func(m []uint32) bool {
		if enc.Encode(struct {
			Embedding []uint32 `json:"embedding"`
		}{m}) != nil {
			return false
		}
		n++
		if n%64 == 0 {
			return bw.Flush() == nil
		}
		return true
	}
}

func submitRequest(w workload, q *graph.Graph, sink func([]uint32) bool) service.Request {
	req := service.Request{
		Graph: "g", Query: q, Algorithm: core.Optimized,
		MaxEmbeddings: w.Limit, NoCache: w.Cold, OnMatch: sink,
	}
	if w.Parallel {
		req.Parallel = defaultConns()
	}
	return req
}

func mallocs() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Mallocs)
}

// traceRequest records three span trees for query i: "request" (the
// pipeline layer by layer, as core.Preprocess + core.MatchPlan compose
// it for the Optimized preset, with a second, parallel enumeration on
// the workload that sends parallel=), "core.preprocess" (the same
// preprocessing as one call) and "service.submit".
func traceRequest(tr *tracer, w workload, in *inputs, svc *service.Service, i, rep int) error {
	g := in.Graph
	id := fmt.Sprintf("%s/%d", w.Name, i)
	var sink func([]uint32) bool
	if w.Stream {
		sink = streamSink()
	}
	// The LDF baseline of filter.kept_ratio is a count: once is enough.
	ldf := 0.0
	if rep == 0 {
		ldf = float64(filter.TotalCandidates(filter.RunLDF(in.Queries[i].G, g)))
	}

	root := tr.begin(0, id, rep, "request")

	s := tr.begin(root, id, rep, "graph.parse")
	q, err := graph.Parse(strings.NewReader(in.Queries[i].Text))
	tr.end(s, nil)
	if err != nil {
		return err
	}

	s = tr.begin(root, id, rep, "graph.fingerprint")
	graph.FingerprintOf(q)
	tr.end(s, nil)

	cfg := core.PresetConfig(core.Optimized, q, g)

	s = tr.begin(root, id, rep, "filter")
	cand, err := filter.Run(cfg.Filter, q, g)
	tr.end(s, map[string]float64{
		"candidates":     float64(filter.TotalCandidates(cand)),
		"ldf_candidates": ldf,
		"vertices":       float64(q.NumVertices()),
	})
	if err != nil {
		return err
	}
	if filter.AnyEmpty(cand) {
		return fmt.Errorf("filter emptied a candidate set of a query extracted from the data graph")
	}

	s = tr.begin(root, id, rep, "candspace.build")
	space := candspace.BuildFull(q, g, cand)
	tr.end(s, nil)

	s = tr.begin(root, id, rep, "candspace.blocks")
	space.MaterializeBlocks()
	tr.end(s, nil)

	s = tr.begin(root, id, rep, "order")
	phi, err := order.Compute(cfg.Order, q, g, cand)
	tr.end(s, nil)
	if err != nil {
		return err
	}

	plan := &core.Plan{Query: q, Data: g, Cfg: cfg, Cand: cand, Space: space, Order: phi, Orbit: 1}

	enum := tr.begin(root, id, rep, "enumerate")
	res, err := core.MatchPlan(plan, core.Limits{MaxEmbeddings: w.Limit, OnMatch: sink})
	tr.end(enum, nil)
	if err != nil {
		return err
	}
	counts := map[string]float64{
		"nodes":      float64(res.Nodes),
		"embeddings": float64(res.Embeddings),
	}
	for k, n := range res.Kernels {
		counts["kernel_"+intersect.Kernel(k).String()] = float64(n)
	}
	tr.spans[enum-1].Counts = counts

	if w.Parallel {
		s = tr.begin(root, id, rep, "core.parallel")
		par, err := core.MatchPlan(plan, core.Limits{MaxEmbeddings: w.Limit, Parallel: defaultConns()})
		if err != nil {
			return err
		}
		counts = map[string]float64{"nodes": float64(par.Nodes)}
		for _, ws := range par.Workers {
			counts["tasks"] += float64(ws.Tasks)
			counts["steals"] += float64(ws.Steals)
			counts["failed_steals"] += float64(ws.FailedSteals)
			counts["worker_nodes_sum"] += float64(ws.Nodes)
			counts["worker_nodes_max"] = max(counts["worker_nodes_max"], float64(ws.Nodes))
		}
		if par.Split != nil {
			counts["probes"] = float64(par.Split.Probes)
			counts["predicted_nodes"] = float64(par.Split.PredictedNodes)
		}
		tr.end(s, counts)
	}

	tr.end(root, nil)

	// The allocation count needs two MemStats reads, which stop the
	// world: it is taken on a repeat of the enumeration outside the spans.
	if rep == 0 {
		m0 := mallocs()
		if _, err := core.MatchPlan(plan, core.Limits{MaxEmbeddings: w.Limit, OnMatch: sink}); err != nil {
			return err
		}
		tr.spans[enum-1].Counts["allocs"] = mallocs() - m0
	}

	s = tr.begin(0, id, rep, "core.preprocess")
	whole, err := core.Preprocess(q, g, cfg, 1)
	if err != nil {
		return err
	}
	tr.end(s, map[string]float64{"plan_bytes": float64(whole.SizeBytes())})

	s = tr.begin(0, id, rep, "service.submit")
	resp, err := svc.Submit(context.Background(), submitRequest(w, q, sink))
	if err != nil {
		return err
	}
	hit := 0.0
	if resp.CacheHit {
		hit = 1
	}
	tr.end(s, map[string]float64{
		"preprocess_ns": float64(resp.Result.PreprocessTime()),
		"enumerate_ns":  float64(resp.Result.EnumTime),
		"queue_wait_ns": float64(resp.QueueWait),
		"cache_hit":     hit,
	})
	if want := !w.Cold; resp.CacheHit != want {
		return fmt.Errorf("in-process service: cache hit %v, workload wants %v", resp.CacheHit, want)
	}
	return nil
}

// selfTimes returns each span's own time: its duration minus the part
// of that interval its child spans cover (overlapping children are
// counted once).
func selfTimes(spans []span) map[int]int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartNS < kids[j].StartNS })
		covered, reach := int64(0), s.StartNS
		for _, k := range kids {
			lo, hi := max(k.StartNS, reach), min(k.EndNS, s.EndNS)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[s.ID] = (s.EndNS - s.StartNS) - covered
	}
	return self
}

func layerTableFromFile(path string) (map[string]metric, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var tf traceFile
	if err := json.Unmarshal(data, &tf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return layerTable(tf.Spans), nil
}

// layerTable derives the per-layer metrics from a workload's spans.
// Times are means over the requests of per-request medians over the
// repetitions; counts are taken from repetition 0 (they repeat
// exactly).
func layerTable(spans []span) map[string]metric {
	type key struct{ request, name string }
	durs := make(map[key][]float64)              // ns, one per repetition
	counts := make(map[key]map[string]float64)   // repetition 0
	perRep := make(map[key][]map[string]float64) // every repetition, for submit_self
	requests := make(map[string]bool)            // query requests, not "<workload>/data"
	var dataReq string
	for _, s := range spans {
		k := key{s.Request, s.Name}
		durs[k] = append(durs[k], float64(s.EndNS-s.StartNS))
		perRep[k] = append(perRep[k], s.Counts)
		if s.Rep == 0 {
			counts[k] = s.Counts
		}
		if strings.HasSuffix(s.Request, "/data") {
			dataReq = s.Request
		} else {
			requests[s.Request] = true
		}
	}
	n := float64(len(requests))

	// dur is the mean over requests of the median duration of a span.
	dur := func(name string) float64 {
		sum := 0.0
		for r := range requests {
			sum += median(durs[key{r, name}])
		}
		return sum / n
	}
	// total sums a repetition-0 count over the requests.
	total := func(name, count string) float64 {
		sum := 0.0
		for r := range requests {
			sum += counts[key{r, name}][count]
		}
		return sum
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}

	submitSelf, projSpeedup := 0.0, 0.0
	for r := range requests {
		k := key{r, "service.submit"}
		var self []float64
		for i, d := range durs[k] {
			c := perRep[k][i]
			self = append(self, d-c["preprocess_ns"]-c["enumerate_ns"])
		}
		submitSelf += median(self)
		c := counts[key{r, "core.parallel"}]
		projSpeedup += ratio(c["worker_nodes_sum"], c["worker_nodes_max"])
	}

	st := selfTimes(spans)
	var reqSelf, reqDur float64
	for _, s := range spans {
		if s.Name == "request" {
			reqSelf += float64(st[s.ID])
			reqDur += float64(s.EndNS - s.StartNS)
		}
	}

	// Only a workload that sends parallel= has core.parallel spans. The
	// others enumerate on one worker: core.par_ms repeats
	// enumerate.seq_ms, the speed-up is 1 and the scheduler tallies 0.
	par := dur("core.parallel")
	if par == 0 {
		par = dur("enumerate")
	}

	pre := dur("filter") + dur("candspace.build") + dur("candspace.blocks") + dur("order")
	nodes := total("enumerate", "nodes")
	snap := counts[key{dataReq, "store.snapshot_write"}]
	return map[string]metric{
		"graph.parse_query_us": {dur("graph.parse") / 1e3, "us"},
		"graph.fingerprint_us": {dur("graph.fingerprint") / 1e3, "us"},
		"graph.parse_data_ms":  {median(durs[key{dataReq, "graph.parse_data"}]) / 1e6, "ms"},

		"filter.time_ms":               {dur("filter") / 1e6, "ms"},
		"filter.candidates_per_vertex": {ratio(total("filter", "candidates"), total("filter", "vertices")), "count"},
		"filter.kept_ratio":            {ratio(total("filter", "candidates"), total("filter", "ldf_candidates")), "ratio"},

		"candspace.build_ms":  {dur("candspace.build") / 1e6, "ms"},
		"candspace.blocks_ms": {dur("candspace.blocks") / 1e6, "ms"},
		"candspace.plan_kb":   {total("core.preprocess", "plan_bytes") / n / 1024, "kB"},

		"order.time_us": {dur("order") / 1e3, "us"},

		"core.preprocess_ms":      {dur("core.preprocess") / 1e6, "ms"},
		"core.preprocess_self_ms": {(dur("core.preprocess") - pre) / 1e6, "ms"},

		"enumerate.seq_ms":              {dur("enumerate") / 1e6, "ms"},
		"enumerate.nodes_per_op":        {nodes / n, "count"},
		"enumerate.ns_per_node":         {ratio(dur("enumerate")*n, nodes), "ns"},
		"enumerate.embeddings_per_node": {ratio(total("enumerate", "embeddings"), nodes), "ratio"},
		"enumerate.allocs_per_op":       {total("enumerate", "allocs") / n, "count"},

		"intersect.merge_calls_per_op":  {total("enumerate", "kernel_merge") / n, "count"},
		"intersect.gallop_calls_per_op": {total("enumerate", "kernel_gallop") / n, "count"},
		"intersect.block_calls_per_op":  {total("enumerate", "kernel_block") / n, "count"},

		"core.par_ms":               {par / 1e6, "ms"},
		"core.par_speedup":          {ratio(dur("enumerate"), par), "ratio"},
		"core.proj_speedup":         {projSpeedup / n, "ratio"},
		"core.tasks_per_op":         {total("core.parallel", "tasks") / n, "count"},
		"core.steals_per_op":        {total("core.parallel", "steals") / n, "count"},
		"core.failed_steals_per_op": {total("core.parallel", "failed_steals") / n, "count"},
		"core.probe_nodes_per_op":   {total("core.parallel", "probes") / n, "count"},
		"core.split_prediction_ratio": {ratio(total("core.parallel", "predicted_nodes"),
			total("core.parallel", "nodes")-total("core.parallel", "probes")), "ratio"},

		"service.submit_self_us": {submitSelf / n / 1e3, "us"},

		"store.snapshot_write_ms": {median(durs[key{dataReq, "store.snapshot_write"}]) / 1e6, "ms"},
		"store.snapshot_open_ms":  {median(durs[key{dataReq, "store.snapshot_open"}]) / 1e6, "ms"},
		"store.bytes_per_edge":    {ratio(snap["bytes"], snap["edges"]), "B"},

		"trace.request_self_pct": {ratio(reqSelf, reqDur) * 100, "%"},
	}
}
