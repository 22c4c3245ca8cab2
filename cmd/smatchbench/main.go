// Command smatchbench is the repository's benchmark: it builds this
// tree's cmd/smatchd, generates a seeded data graph and query lists,
// drives four fixed-work workloads against a spawned smatchd over HTTP,
// checks every response against an in-process oracle, and reports six
// end-to-end metrics per workload. With -trace 1 it additionally
// replays the workload in-process with a span around each layer's
// exported entry point and reports the per-layer metrics. See
// README.md beside this file for every name, unit and bound.
//
// Usage:
//
//	go run ./cmd/smatchbench [-workload name] [-seed 1] [-seconds 20]
//	       [-trace 0|1] [-out .bench_build]
//	go run ./cmd/smatchbench -selfcheck N [-workload name]
//
// Without -workload all four workloads run in turn. The last line of
// standard output is one JSON object {"correct", "attempted",
// "failed", "metrics"} for the (last) workload run: the end-to-end
// metrics with -trace 0, the per-layer metrics with -trace 1. The exit
// status is non-zero when any operation failed, any response disagreed
// with the oracle, or a workload invariant did not hold.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
)

func main() {
	var (
		name      = flag.String("workload", "", "workload to run (default: all four in turn)")
		seed      = flag.Int64("seed", 1, "request-order seed: the same seed sends the same request sequence")
		seconds   = flag.Float64("seconds", baseSeconds, "measuring time the timed rounds are sized for")
		trace     = flag.Int("trace", 0, "1 = also run the traced in-process layer pass and report the per-layer metrics")
		outDir    = flag.String("out", ".bench_build", "directory for the smatchd binary, its log, run records and traces")
		selfcheck = flag.Int("selfcheck", 0, "run N full runs twice and compare the two sets' medians against the bounds")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	if err := run(options{Seed: *seed, Seconds: *seconds, Trace: *trace == 1, OutDir: *outDir}, *name, *selfcheck); err != nil {
		fmt.Fprintln(os.Stderr, "smatchbench:", err)
		os.Exit(1)
	}
}

func run(opts options, name string, selfcheck int) error {
	selected := workloads
	if name != "" {
		w, err := findWorkload(name)
		if err != nil {
			return err
		}
		selected = []workload{w}
	}

	// The generator gets at most C processors: with more it would take
	// cores from the daemon it is measuring.
	runtime.GOMAXPROCS(defaultConns())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	root, err := moduleRoot()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(opts.OutDir, 0o755); err != nil {
		return err
	}
	bin, err := buildDaemon(ctx, root, opts.OutDir)
	if err != nil {
		return err
	}
	h := &harness{opts: opts, daemonBin: bin, gitSHA: gitSHA(root)}

	if selfcheck > 0 {
		return h.selfcheck(ctx, selected, selfcheck)
	}

	var (
		failed []string
		last   *runRecord
	)
	for _, w := range selected {
		rec, err := h.runWorkload(ctx, w)
		if err != nil {
			return err
		}
		printRecord(os.Stdout, rec)
		data, err := json.MarshalIndent(rec, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(opts.OutDir, "run-"+w.Name+".json"), data, 0o644); err != nil {
			return err
		}
		if !rec.Correct {
			failed = append(failed, w.Name)
		}
		last = rec
	}
	if err := printResult(last, opts.Trace); err != nil {
		return err
	}
	if len(failed) > 0 {
		return fmt.Errorf("failed operations or a violated workload invariant on %s", strings.Join(failed, ", "))
	}
	return nil
}

// printResult writes the one-line result object the pipeline reads.
func printResult(rec *runRecord, traced bool) error {
	metrics := rec.EndToEnd
	if traced {
		metrics = rec.PerLayer
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rec.Correct, rec.Attempted, rec.Failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(line))
	return err
}

// gitSHA names the commit being measured, "unknown" outside a git
// checkout (the pipeline runs the benchmark in an exported tree).
func gitSHA(root string) string {
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = root
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
