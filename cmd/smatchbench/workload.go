package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strconv"

	"subgraphmatching/internal/graph"
)

// defaultConns is C, the closed-loop client count and the parallel= value of
// the enumeration workload: one per core up to four. Closed loop,
// because callers of a matching service wait for their count; at most
// one per core, because generator and daemon share the machine and an
// open-loop backlog there would measure the scheduler.
func defaultConns() int {
	return min(runtime.NumCPU(), 4)
}

// heavyLimit is the embedding cap of enum-heavy, 2.5 times the paper's
// 10^5: high enough that enumeration is over 95% of the request, low
// enough that two passes over the 48 queries fit one round and the
// pooled sample of the kept rounds supports a p95.
const heavyLimit = 250000

// baseSeconds is the measuring time the pass counts below are sized
// for: ten rounds of about two seconds each.
const baseSeconds = 20

// A run times ten rounds and keeps the three fastest. The box's
// neighbours slow it for seconds to minutes at a time; the issue's five
// rounds of four seconds with the two slowest dropped left a third more
// run-to-run spread in such stretches than ten shorter rounds with only
// the fastest kept (NOISE.md).
const (
	timedRounds = 10
	keptRounds  = 3
	setupCycles = 3
)

// workload is one fixed traffic mix against one daemon configuration.
type workload struct {
	Name string
	Why  string
	// Heavy selects the 48 cap-reaching sparse queries; otherwise the
	// first Queries of the mixed list are used.
	Heavy   bool
	Queries int
	// Limit is the limit= of the timed requests; WarmLimit that of the
	// untimed warm pass (0 = Limit).
	Limit     uint64
	WarmLimit uint64
	Stream    bool
	Parallel  bool // send parallel=C
	// Conns is the number of closed-loop connections (0 = C).
	Conns       int
	DaemonFlags []string
	// Passes over the query list per round at baseSeconds, sized on a
	// 2-core box so one round takes about two seconds.
	Passes int
	// Cold says the plan cache must never hit; otherwise it must
	// always hit after the warm pass.
	Cold bool
	// What the workload's name promises about where the time goes
	// (0 = no promise): the share of the median latency that is
	// daemon-side overhead outside preprocessing, enumeration and
	// queueing must stay above resp. below these, and the reported
	// preprocessing share of the median-latency request above this.
	OverheadAbove, OverheadBelow, PreprocessAbove float64
	// TraceRound adds one round with &trace=1 to a -trace 1 run, which
	// prices the daemon's own tracing (obs.trace_overhead_pct).
	TraceRound bool
}

var workloads = []workload{
	{
		Name:    "serve-warm",
		Why:     "64 hot queries, every plan cached: HTTP, query parse, fingerprint, cache lookup, admission and JSON encode do the work; filter, candspace and order do none",
		Queries: 64, Limit: 1000, Passes: 95, OverheadAbove: 0.6, TraceRound: true,
	},
	{
		Name:    "serve-cold",
		Why:     "256 distinct queries cycled against a 64-plan cache: 0 hits and one eviction per request, so every request pays filter, candidate-space build and order",
		Queries: 256, Limit: 1000, Passes: 2, Cold: true, PreprocessAbove: 0.7,
		DaemonFlags: []string{"-plan-cache", "64"},
	},
	{
		Name:  "enum-heavy",
		Why:   "48 sparse queries capped at 250000 embeddings with parallel=C on one connection: enumerate, intersect and the work-stealing scheduler do the work, HTTP none",
		Heavy: true, Queries: 48, Limit: heavyLimit, WarmLimit: 1000, Parallel: true, Conns: 1, Passes: 2, OverheadBelow: 0.05,
	},
	{
		Name:  "stream-embeddings",
		Why:   "the same 48 queries streamed as NDJSON (20000 embeddings each): enumeration through OnMatch into an encoding, flushing sink, which the counting workloads never use",
		Heavy: true, Queries: 48, Limit: 20000, Stream: true, Passes: 5,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

func (w workload) conns() int {
	if w.Conns > 0 {
		return w.Conns
	}
	return defaultConns()
}

// params is the /match query string for one request of this workload.
func (w workload) params(limit uint64) string {
	s := "graph=g&limit=" + strconv.FormatUint(limit, 10)
	if w.Parallel {
		s += "&parallel=" + strconv.Itoa(defaultConns())
	}
	if w.Stream {
		s += "&stream=1"
	}
	return s
}

func (w workload) warmLimit() uint64 {
	if w.WarmLimit > 0 {
		return w.WarmLimit
	}
	return w.Limit
}

// passes scales the pass count with the requested measuring time; at
// least one pass, so a round always covers the whole query list.
func (w workload) passes(seconds float64) int {
	return max(1, int(math.Round(float64(w.Passes)*seconds/baseSeconds)))
}

// inputs is everything a workload run needs besides a daemon.
type inputs struct {
	Graph     *graph.Graph
	GraphText []byte
	Queries   []query
	Oracle    []oracleEntry
}

// inputKey names a query set and the cap its oracle counted to:
// enum-heavy and stream-embeddings share one.
type inputKey struct {
	heavy   bool
	queries int
	limit   uint64
}

// inputsFor returns the workload's data graph, queries and oracle.
// None of it depends on -seed, so it is built once per process however
// many runs follow.
func (h *harness) inputsFor(w workload) (*inputs, error) {
	key := inputKey{w.Heavy, w.Queries, w.Limit}
	if w.Heavy {
		key.limit = heavyLimit
	}
	if in := h.inputs[key]; in != nil {
		return in, nil
	}
	if h.graph == nil {
		g, text, err := genGraph(g20, corpusSeed)
		if err != nil {
			return nil, err
		}
		h.graph, h.graphText = g, text
	}
	in := &inputs{Graph: h.graph, GraphText: h.graphText}
	var err error
	if w.Heavy {
		in.Queries, in.Oracle, err = heavyQueries(h.graph, corpusSeed, w.Queries/len(querySizes), heavyLimit)
	} else {
		in.Queries, err = mixedQueries(h.graph, corpusSeed, w.Queries)
		if err == nil {
			in.Oracle, err = buildOracle(h.graph, in.Queries, w.Limit)
		}
	}
	if err != nil {
		return nil, err
	}
	if h.inputs == nil {
		h.inputs = map[inputKey]*inputs{}
	}
	h.inputs[key] = in
	return in, nil
}

// expected resolves the oracle for one request limit.
func (in *inputs) expected(limit uint64) ([]uint64, error) {
	out := make([]uint64, len(in.Oracle))
	for i, o := range in.Oracle {
		n, err := o.expect(limit)
		if err != nil {
			return nil, fmt.Errorf("query %d: %w", i, err)
		}
		out[i] = n
	}
	return out, nil
}

// requestOrder is the seed's contribution to a run: the order in which
// the workload's queries are sent. One pass is a permutation of the
// query list; a round repeats that pass. Every query is therefore sent
// equally often whatever the seed, so the work of a round is identical
// across seeds and only its interleaving changes — and a cyclic order
// over 256 queries misses a 64-entry LRU on every request, whichever
// permutation it is.
func requestOrder(nQueries int, seed int64, passes int) []int32 {
	perm := rand.New(rand.NewSource(seed)).Perm(nQueries)
	seq := make([]int32, 0, nQueries*passes)
	for p := 0; p < passes; p++ {
		for _, qi := range perm {
			seq = append(seq, int32(qi))
		}
	}
	return seq
}
