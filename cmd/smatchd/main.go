// Command smatchd serves subgraph matching over HTTP: a long-lived
// process holding named data graphs in memory, caching preprocessing
// plans across repeated queries, and bounding concurrent enumeration
// work with admission control (see internal/service).
//
// Usage:
//
//	smatchd [-addr :7733] [-graph name=path]... [-max-inflight 2*P]
//	        [-max-queue 64] [-max-queue-wait 5s] [-plan-cache 256]
//	        [-plan-cache-bytes 268435456] [-max-graph-share 0.5]
//	        [-data-dir path] [-mmap] [-verify-snapshots]
//	        [-timeout 5m] [-pprof] [-slowlog path] [-slow-threshold 1s]
//	        [-slowlog-max-bytes 0]
//
// API:
//
//	GET    /healthz               readiness: uptime, graph count,
//	                              admission occupancy (JSON)
//	GET    /graphs                registered graphs (JSON)
//	PUT    /graphs/{name}         register graph (body: t/v/e text
//	                              format, or a binary snapshot with
//	                              Content-Type application/x-smatch-
//	                              snapshot; ?replace=1 hot-swaps)
//	DELETE /graphs/{name}         unregister
//	POST   /match                 run a query (body: query graph text)
//	       ?graph=name [&algo=Optimized] [&limit=N] [&timeout=5m]
//	       [&parallel=4] [&stream=1] [&trace=1] [&explain=1]
//	POST   /match/batch           run many queries as one batch (body:
//	       JSON array of {graph, query, algo?, limit?, timeout?,
//	       parallel?, no_cache?, explain?}); items sharing a
//	       (graph, query, config) group pass admission once and resolve
//	       one plan; duplicates run once. Response: indexed per-item
//	       results; failed items carry their /match-equivalent status.
//	       With ?stream=1: NDJSON of indexed embedding lines, then one
//	       indexed result line per item.
//	POST   /explain               EXPLAIN without ANALYZE: resolve the
//	       query's plan (cached or fresh) and return the optimizer's
//	       decisions — filter-stage candidate reduction, matching order,
//	       per-vertex cardinalities — without enumerating. Same body and
//	       parameters as /match; ?format=text renders tables.
//	GET    /stats                 serving statistics (JSON)
//	GET    /metrics               Prometheus text exposition
//	GET    /debug/tracez          flight-recorder retention: slowest
//	       requests per latency band plus recent errors; ?id=N returns
//	       one record's full span tree (&format=text renders it,
//	       &format=chrome exports a chrome://tracing trace file)
//	GET    /debug/requests        live in-flight requests with phase and
//	       elapsed time (?format=text for a table)
//	GET    /debug/pprof/...       runtime profiling (only with -pprof)
//
// With trace=1 the /match result includes the request's phase-span
// breakdown (admission wait, plan lookup or preprocessing stages,
// enumeration with per-worker tallies). With explain=1 it additionally
// carries the EXPLAIN/ANALYZE profile: per-filter-stage candidate
// reduction, the matching order with per-vertex cardinalities, and the
// per-depth enumeration heat table (nodes, candidates, conflicts,
// kernel mix). With -slowlog, requests at or above -slow-threshold
// append one NDJSON record with the span breakdown to the given file;
// -slowlog-max-bytes bounds the file by rename-and-truncate rotation
// (path -> path.1, newest records always in the live file; 0 keeps the
// log unbounded).
//
// Without stream, /match returns one JSON result object. With
// stream=1 it returns NDJSON: one {"embedding":[...]} line per match
// (written with backpressure — a slow reader slows the search), then a
// final {"result":{...}} summary line. Both streaming endpoints share
// one writer (stream.go) and one flush rule: the first line is flushed
// at once, after that a flush happens when 128 KiB are buffered or 5 ms
// have passed since the last one (the clock is read every 16 lines),
// and the final flush carries the summary line. Every flush runs under
// a 30 s write deadline: a reader that stops draining fails the write,
// which aborts the search and releases its admission units; a failed
// write from a closed connection does the same at once.
//
// Status mapping: unknown graph 404, invalid query or graph text 400,
// overload 503 (with Retry-After), deadline 504. Streamed requests get
// the same codes for failures that occur before the first embedding is
// written; afterwards the stream ends with an {"error":...} line.
// Every /match runs under its own request's context: a client that
// disconnects stops its search (499) and frees its admission units.
//
// With -data-dir, smatchd runs a durable graph store (internal/store):
// every registration is snapshotted to a checksummed CSR file and
// logged to a write-ahead log before being acknowledged, and a restart
// on the same directory recovers all graphs — same names, same bytes,
// strictly monotonic generations — without re-uploading anything.
// -mmap maps recovered snapshots instead of copying them into the heap
// (near-instant restart, page-cache-resident working set);
// -verify-snapshots additionally recomputes each snapshot's sha256
// fingerprint at startup. Without -data-dir, graphs live only in memory.
// /healthz gains a "store" section with recovery and occupancy state,
// and /metrics gains smatch_store_* families.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"subgraphmatching/internal/obs"
	"subgraphmatching/internal/service"
	"subgraphmatching/internal/store"
)

// graphFlags collects repeated -graph name=path arguments.
type graphFlags []string

func (g *graphFlags) String() string     { return strings.Join(*g, ",") }
func (g *graphFlags) Set(v string) error { *g = append(*g, v); return nil }

func main() {
	var (
		addr       = flag.String("addr", ":7733", "listen address")
		inflight   = flag.Int("max-inflight", 0, "max concurrent enumeration workers (0 = 2x GOMAXPROCS)")
		queue      = flag.Int("max-queue", 0, "max queued requests (0 = 64)")
		queueWait  = flag.Duration("max-queue-wait", 0, "max admission wait (0 = 5s)")
		cacheSize  = flag.Int("plan-cache", 0, "plan cache entries (0 = 256, negative disables)")
		cacheBytes = flag.Int64("plan-cache-bytes", 0, "plan cache byte budget (0 = 256 MiB, negative unbounded)")
		graphShare = flag.Float64("max-graph-share", 0, "max fraction of the admission queue one graph may hold (0 = 0.5, negative disables)")
		timeout    = flag.Duration("timeout", 0, "default per-query time limit (0 = 5m)")
		pprofOn    = flag.Bool("pprof", false, "mount /debug/pprof (exposes runtime internals; keep off unless needed)")
		slowLog    = flag.String("slowlog", "", "append slow-query NDJSON records to this file")
		slowThresh = flag.Duration("slow-threshold", 0, "latency at which a request is logged as slow (0 = 1s; needs -slowlog)")
		slowBytes  = flag.Int64("slowlog-max-bytes", 0, "rotate the slowlog (path -> path.1) when it would exceed this size (0 = unbounded; needs -slowlog)")
		dataDir    = flag.String("data-dir", "", "durable store directory: snapshot + WAL every registration, recover on restart")
		mmapSnaps  = flag.Bool("mmap", false, "serve recovered snapshots from mmap instead of copying into the heap (needs -data-dir)")
		verifySnap = flag.Bool("verify-snapshots", false, "recompute each snapshot's sha256 fingerprint during recovery (needs -data-dir)")
		graphs     graphFlags
	)
	flag.Var(&graphs, "graph", "preload a data graph as name=path (repeatable)")
	flag.Parse()

	cfg := service.Config{
		MaxInFlight:        *inflight,
		MaxQueue:           *queue,
		MaxQueueWait:       *queueWait,
		PlanCacheSize:      *cacheSize,
		PlanCacheBytes:     *cacheBytes,
		MaxGraphShare:      *graphShare,
		DefaultTimeLimit:   *timeout,
		SlowQueryThreshold: *slowThresh,
	}
	if *slowLog != "" {
		// The rotating writer with a zero cap is a plain append file;
		// with -slowlog-max-bytes it renames to .1 and truncates before
		// the write that would exceed the cap, so the newest records are
		// always in the live file.
		f, err := obs.NewRotatingWriter(*slowLog, *slowBytes)
		if err != nil {
			fmt.Fprintf(os.Stderr, "smatchd: open slowlog %q: %v\n", *slowLog, err)
			os.Exit(1)
		}
		defer f.Close()
		cfg.SlowQueryLog = f
	}
	svc := service.New(cfg)

	var mgr *store.Manager
	if *dataDir != "" {
		var err error
		mgr, err = store.Open(svc, store.Options{
			Dir:               *dataDir,
			MMap:              *mmapSnaps,
			VerifyFingerprint: *verifySnap,
			Logf: func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, "smatchd: store: "+format+"\n", args...)
			},
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "smatchd: open store %q: %v\n", *dataDir, err)
			os.Exit(1)
		}
		rec := mgr.RecoveryStats()
		fmt.Printf("smatchd: recovered %d graphs from %s in %s (%d WAL records, %d skipped)\n",
			rec.Recovered, *dataDir, rec.Duration.Round(time.Millisecond), rec.WALRecords, rec.Skipped)
	}

	for _, spec := range graphs {
		name, path, ok := strings.Cut(spec, "=")
		if !ok {
			fmt.Fprintf(os.Stderr, "smatchd: -graph %q: want name=path\n", spec)
			os.Exit(1)
		}
		g, err := store.LoadGraphFile(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "smatchd: load %q: %v\n", path, err)
			os.Exit(1)
		}
		var info service.GraphInfo
		if mgr != nil {
			info, err = mgr.RegisterGraph(name, g, false)
		} else {
			info, err = svc.RegisterGraph(name, g, false)
		}
		if err != nil {
			if mgr != nil && errors.Is(err, service.ErrDuplicateGraph) {
				// Recovery already restored this name; the durable copy
				// wins over the command-line file.
				fmt.Printf("smatchd: %s already recovered from %s, skipping preload\n", name, *dataDir)
				continue
			}
			fmt.Fprintf(os.Stderr, "smatchd: register %q: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Printf("smatchd: loaded %s: %d vertices, %d edges, %d labels\n",
			info.Name, info.Vertices, info.Edges, info.Labels)
	}

	srv := newHTTPServer(*addr, newServer(svc, serverOptions{pprof: *pprofOn, store: mgr}))
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	fmt.Printf("smatchd: listening on %s\n", *addr)
	select {
	case err := <-errc:
		fmt.Fprintln(os.Stderr, "smatchd:", err)
		os.Exit(1)
	case <-ctx.Done():
	}
	stop()
	fmt.Println("smatchd: shutting down")
	svc.Close()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "smatchd: shutdown:", err)
		os.Exit(1)
	}
	if mgr != nil {
		// After the listener and service have drained: compacts the WAL
		// into the manifest and unmaps any mmap-served snapshots.
		if err := mgr.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "smatchd: store close:", err)
			os.Exit(1)
		}
	}
}

// Connection-level timeouts. A client gets readHeaderTimeout to send
// its request headers, and a keep-alive connection may sit idle for
// idleTimeout between requests; both close the connection, neither
// touches a request in flight.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 120 * time.Second
)

// newHTTPServer returns smatchd's http.Server. ReadTimeout and
// WriteTimeout stay unset on purpose: they bound the whole request body
// and the whole response, which would cut a large PUT /graphs upload
// and a long NDJSON stream — the stream carries its own per-flush write
// deadline (stream.go).
func newHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
}
