// Command smatch runs subgraph matching queries: it loads a query graph
// (or a directory of them) and a data graph in the text format (t/v/e
// records), executes the selected algorithm, and reports the embedding
// counts and the preprocessing/enumeration time split the paper
// measures.
//
// Usage:
//
//	smatch -q query.graph -d data.graph [-algo Optimized] [-limit 100000]
//	       [-timeout 5m] [-print 3] [-profile] [-parallel 4]
//	       [-kernel adaptive] [-trace] [-explain]
//	smatch -q queries/ -d data.graph [-csv out.csv]   # batch mode
//	smatch -batch list.txt -d data.graph              # batched service mode:
//	       list.txt holds query-graph paths, one per line; the queries run
//	       as ONE service batch (grouped admission, one plan per distinct
//	       query, duplicates deduplicated) and a grouping summary follows
//	smatch -d data.graph -save data.snap              # write a checksummed
//	       binary snapshot; -d and -q accept snapshots everywhere
//	smatch -load data.snap [-o data.graph]            # verify a snapshot
//	       (full sha256 fingerprint) and optionally convert back to text
//	smatch -fsck /var/lib/smatchd                     # verify a smatchd
//	       data directory: manifest + WAL replay, every live snapshot's
//	       checksums and fingerprint, orphan detection; read-only
package main

import (
	"context"
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	sm "subgraphmatching"
	"subgraphmatching/internal/intersect"
	"subgraphmatching/internal/store"
)

func main() {
	var (
		queryPath = flag.String("q", "", "query graph file (required)")
		dataPath  = flag.String("d", "", "data graph file (required)")
		algoName  = flag.String("algo", "Optimized", "algorithm: QSI GQL CFL CECI DPiso RI VF2PP Optimized GLW")
		limit     = flag.Uint64("limit", 100_000, "stop after this many embeddings (0 = all)")
		timeout   = flag.Duration("timeout", 5*time.Minute, "per-query time limit (0 = none)")
		printN    = flag.Int("print", 0, "print up to N embeddings")
		parallel  = flag.Int("parallel", 1, "worker goroutines for enumeration")
		kernel    = flag.String("kernel", "adaptive", "intersection-kernel policy: adaptive merge gallop block")
		profile   = flag.Bool("profile", false, "print a per-depth search profile")
		trace     = flag.Bool("trace", false, "print the phase-span trace (filter stages, order, build, per-worker enumeration)")
		explain   = flag.Bool("explain", false, "print the EXPLAIN/ANALYZE breakdown: filter-stage reduction, matching order, per-depth enumeration heat")
		hom       = flag.Bool("hom", false, "count homomorphisms instead of isomorphisms")
		sym       = flag.Bool("sym", false, "enable symmetry breaking (NEC orbit counting)")
		estimate  = flag.Bool("estimate", false, "print the spanning-tree cardinality estimate first")
		csvPath   = flag.String("csv", "", "batch mode: also write per-query results as CSV")
		batchList = flag.String("batch", "", "run the query files listed in this file (one path per line) as one service batch")
		savePath  = flag.String("save", "", "write the -d graph as a binary snapshot to this path and exit")
		loadPath  = flag.String("load", "", "verify a snapshot file (full fingerprint check) and print its shape")
		outPath   = flag.String("o", "", "with -load: also write the graph in the t/v/e text format to this path")
		fsckDir   = flag.String("fsck", "", "verify a smatchd data directory (read-only) and exit non-zero on corruption")
	)
	flag.Parse()
	if *fsckDir != "" {
		if err := runFsck(*fsckDir); err != nil {
			exitErr(err)
		}
		return
	}
	if *savePath != "" {
		if err := runSave(*dataPath, *savePath); err != nil {
			exitErr(err)
		}
		return
	}
	if *loadPath != "" {
		if err := runLoad(*loadPath, *outPath); err != nil {
			exitErr(err)
		}
		return
	}
	// Ctrl-C cancels the context; MatchContext stops the search
	// cooperatively and the process exits cleanly instead of being
	// killed mid-enumeration.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *batchList != "" {
		if err := runServiceBatch(ctx, *batchList, *dataPath, *algoName, *limit, *timeout, *parallel); err != nil {
			exitErr(err)
		}
		return
	}
	if info, err := os.Stat(*queryPath); err == nil && info.IsDir() {
		if err := runBatch(ctx, *queryPath, *dataPath, *algoName, *limit, *timeout, *csvPath); err != nil {
			exitErr(err)
		}
		return
	}
	if err := run(ctx, *queryPath, *dataPath, *algoName, *limit, *timeout, *printN, *parallel,
		*kernel, *profile, *trace, *explain, *hom, *sym, *estimate); err != nil {
		exitErr(err)
	}
}

// runSave converts a graph file (text or snapshot) into the checksummed
// binary snapshot format.
func runSave(dataPath, savePath string) error {
	if dataPath == "" {
		return fmt.Errorf("-save needs -d")
	}
	g, err := sm.LoadGraph(dataPath)
	if err != nil {
		return err
	}
	fp, size, err := store.WriteSnapshotFile(savePath, g)
	if err != nil {
		return err
	}
	fmt.Printf("saved %v to %s (%d bytes, fp %s)\n", g, savePath, size, hex.EncodeToString(fp[:8]))
	return nil
}

// runLoad opens a snapshot with the full fingerprint check and
// optionally converts it back to the text format — the inverse of
// -save, closing the round-trip.
func runLoad(loadPath, outPath string) error {
	snap, err := store.OpenSnapshot(loadPath, store.LoadOptions{VerifyFingerprint: true})
	if err != nil {
		return err
	}
	fmt.Printf("snapshot %s: %v (%d bytes, fp %s, verified)\n",
		loadPath, snap.Graph, snap.Size, hex.EncodeToString(snap.Fingerprint[:8]))
	if outPath != "" {
		if err := sm.SaveGraph(outPath, snap.Graph); err != nil {
			return err
		}
		fmt.Printf("text format written to %s\n", outPath)
	}
	return nil
}

// runFsck verifies a smatchd data directory without modifying it.
func runFsck(dir string) error {
	rep, err := store.Fsck(dir)
	if err != nil {
		return err
	}
	rep.WriteReport(os.Stdout)
	if rep.Errors > 0 {
		os.Exit(1)
	}
	return nil
}

func exitErr(err error) {
	if errors.Is(err, context.Canceled) {
		fmt.Fprintln(os.Stderr, "smatch: interrupted")
		os.Exit(130)
	}
	fmt.Fprintln(os.Stderr, "smatch:", err)
	os.Exit(1)
}

func run(ctx context.Context, queryPath, dataPath, algoName string, limit uint64, timeout time.Duration, printN, parallel int,
	kernelName string, profile, trace, explain, hom, sym, estimate bool) error {
	if queryPath == "" || dataPath == "" {
		return fmt.Errorf("both -q and -d are required")
	}
	algo, err := sm.ParseAlgorithm(algoName)
	if err != nil {
		return err
	}
	kern, err := sm.ParseKernelPolicy(kernelName)
	if err != nil {
		return err
	}
	q, err := sm.LoadGraph(queryPath)
	if err != nil {
		return err
	}
	g, err := sm.LoadGraph(dataPath)
	if err != nil {
		return err
	}
	fmt.Printf("query: %v\ndata:  %v\nalgo:  %v\n", q, g, algo)

	if estimate {
		est, err := sm.EstimateEmbeddings(q, g)
		if err != nil {
			return err
		}
		fmt.Printf("estimate:      %.0f (spanning-tree upper bound)\n", est)
	}

	printed := 0
	opts := sm.Options{Algorithm: algo, MaxEmbeddings: limit, TimeLimit: timeout,
		Parallel: parallel, Trace: trace, Explain: explain || profile}
	if hom || sym || kern != sm.KernelAdaptive {
		cfg := sm.PresetConfig(algo, q, g)
		cfg.Homomorphism = hom
		cfg.SymmetryBreaking = sym
		cfg.Kernel = kern
		if hom {
			// Homomorphism mode needs the pipeline engine, not the
			// external solvers, and ignores structural filters.
			cfg.UseGlasgow, cfg.UseVF2, cfg.UseUllmann = false, false, false
			if cfg.Local == sm.LocalDirect && cfg.VF2PPRules {
				cfg.VF2PPRules = false
			}
		}
		opts.Custom = &cfg
	}
	if printN > 0 {
		opts.OnMatch = func(m []sm.Vertex) bool {
			if printed < printN {
				fmt.Printf("match %d: %v\n", printed+1, m)
				printed++
			}
			return true
		}
	}
	res, err := sm.MatchContext(ctx, q, g, opts)
	if err != nil {
		return err
	}
	fmt.Printf("embeddings:    %d", res.Embeddings)
	if res.LimitHit {
		fmt.Printf(" (limit reached)")
	}
	fmt.Println()
	fmt.Printf("search nodes:  %d\n", res.Nodes)
	if s := res.Split; s != nil {
		fmt.Printf("split:         tasks=%d donated=%d\n", s.Tasks, s.SplitTasks)
	}
	fmt.Printf("preprocessing: %v (filter %v, build %v, order %v)\n",
		res.PreprocessTime(), res.FilterTime, res.BuildTime, res.OrderTime)
	fmt.Printf("enumeration:   %v\n", res.EnumTime)
	fmt.Printf("candidates:    %.1f per query vertex\n", res.MeanCandidates)
	if res.Kernels.Total() != 0 {
		fmt.Printf("kernel mix:   ")
		for i, n := range res.Kernels {
			if n != 0 {
				fmt.Printf(" %s=%d", intersect.Kernel(i), n)
			}
		}
		fmt.Println()
	}
	fmt.Printf("memory:        %d bytes\n", res.MemoryBytes)
	if res.TimedOut {
		fmt.Println("status:        UNSOLVED (time limit)")
	} else {
		fmt.Println("status:        solved")
	}
	if explain && res.Explain != nil {
		fmt.Println("\nexplain:")
		res.Explain.Render(os.Stdout)
	}
	if profile && res.Profile != nil {
		fmt.Println("\nsearch profile:")
		res.Profile.Render(os.Stdout)
		fmt.Println(res.Profile.BranchingSummary())
	}
	if trace && res.Trace != nil {
		fmt.Println("\ntrace:")
		res.Trace.Render(os.Stdout)
	}
	return nil
}

// runBatch executes every query in a directory and prints the paper's
// aggregate metrics, optionally dumping per-query rows as CSV.
func runBatch(ctx context.Context, queryDir, dataPath, algoName string, limit uint64, timeout time.Duration, csvPath string) error {
	if dataPath == "" {
		return fmt.Errorf("-d is required")
	}
	algo, err := sm.ParseAlgorithm(algoName)
	if err != nil {
		return err
	}
	queries, err := sm.LoadQueryDir(queryDir)
	if err != nil {
		return err
	}
	g, err := sm.LoadGraph(dataPath)
	if err != nil {
		return err
	}
	fmt.Printf("data:    %v\nalgo:    %v\nqueries: %d from %s\n\n", g, algo, len(queries), queryDir)

	var totalEmb uint64
	var totalPre, totalEnum time.Duration
	unsolved := 0
	var results []*sm.Result
	errored := 0
	for i, q := range queries {
		res, err := sm.MatchContext(ctx, q, g, sm.Options{Algorithm: algo, MaxEmbeddings: limit, TimeLimit: timeout})
		if err != nil {
			if errors.Is(err, context.Canceled) {
				return err
			}
			// A malformed query (e.g. disconnected) fails alone, not the
			// batch.
			fmt.Printf("  query %3d: error: %v\n", i, err)
			errored++
			results = append(results, nil)
			continue
		}
		results = append(results, res)
		status := "solved"
		if res.TimedOut {
			status = "UNSOLVED"
			unsolved++
		}
		fmt.Printf("  query %3d: %9d embeddings  %12v preprocess  %12v enumerate  [%s]\n",
			i, res.Embeddings, res.PreprocessTime().Round(time.Microsecond),
			res.EnumTime.Round(time.Microsecond), status)
		totalEmb += res.Embeddings
		totalPre += res.PreprocessTime()
		totalEnum += res.EnumTime
	}
	if n := time.Duration(len(queries) - errored); n > 0 {
		fmt.Printf("\ntotal embeddings: %d\nmean preprocess:  %v\nmean enumerate:   %v\nunsolved:         %d/%d  errors: %d\n",
			totalEmb, (totalPre / n).Round(time.Microsecond), (totalEnum / n).Round(time.Microsecond),
			unsolved, len(queries), errored)
	}

	if csvPath != "" {
		f, err := os.Create(csvPath)
		if err != nil {
			return err
		}
		defer f.Close()
		fmt.Fprintln(f, "query,embeddings,nodes,preprocess_ms,enum_ms,timed_out")
		for i, r := range results {
			if r == nil {
				continue
			}
			fmt.Fprintf(f, "%d,%d,%d,%.3f,%.3f,%t\n", i, r.Embeddings, r.Nodes,
				float64(r.PreprocessTime())/float64(time.Millisecond),
				float64(r.EnumTime)/float64(time.Millisecond), r.TimedOut)
		}
		fmt.Printf("per-query CSV written to %s\n", csvPath)
	}
	return nil
}
