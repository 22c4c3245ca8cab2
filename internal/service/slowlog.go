package service

import (
	"encoding/hex"
	"encoding/json"
	"io"
	"sync"
	"time"

	"subgraphmatching/internal/graph"
	"subgraphmatching/internal/obs"
)

// slowQueryLogger appends one NDJSON line per request whose end-to-end
// latency reaches the threshold. Each line is self-contained — query
// fingerprint, workload, config knobs, outcome, and the full span
// breakdown — so a slow request can be diagnosed from the log alone,
// without correlating against metrics or re-running the query.
type slowQueryLogger struct {
	mu        sync.Mutex
	w         io.Writer
	threshold time.Duration
}

// slowQueryRecord is the wire shape of one slow-query line.
type slowQueryRecord struct {
	Time       string `json:"time"`
	Graph      string `json:"graph"`
	Algorithm  string `json:"algo"`
	QueryFP    string `json:"query_fp,omitempty"`
	QueryVerts int    `json:"query_vertices,omitempty"`
	QueryEdges int    `json:"query_edges,omitempty"`
	// Batch records (Algorithm "batch") report the item/group counts and
	// per-item error tally instead of a single query's shape.
	Batch       int       `json:"batch,omitempty"`
	Groups      int       `json:"groups,omitempty"`
	ItemErrors  int       `json:"item_errors,omitempty"`
	Parallel    int       `json:"parallel,omitempty"`
	MaxEmb      uint64    `json:"max_embeddings,omitempty"`
	CacheHit    bool      `json:"cache_hit"`
	Embeddings  uint64    `json:"embeddings"`
	Nodes       uint64    `json:"nodes"`
	TimedOut    bool      `json:"timed_out,omitempty"`
	LimitHit    bool      `json:"limit_hit,omitempty"`
	LatencyNS   int64     `json:"latency_ns"`
	QueueWaitNS int64     `json:"queue_wait_ns"`
	Trace       *obs.Span `json:"trace,omitempty"`
}

// log writes one record; lines are serialized so concurrent slow
// requests never interleave bytes.
func (l *slowQueryLogger) log(rec slowQueryRecord) {
	b, err := json.Marshal(rec)
	if err != nil {
		return
	}
	b = append(b, '\n')
	l.mu.Lock()
	l.w.Write(b)
	l.mu.Unlock()
}

// fingerprintHex renders a query fingerprint for the log: the first 16
// hex digits identify repeats without bloating every line with 64.
func fingerprintHex(fp graph.Fingerprint) string {
	return hex.EncodeToString(fp[:8])
}
