package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"strings"
	"time"

	sm "subgraphmatching"
	"subgraphmatching/internal/service"
)

// runServiceBatch runs the query files listed in listPath (one path per
// line, blank lines and #-comments skipped) as ONE batch through an
// in-process service: items naming the same query under the same config
// share an admission grant and a preprocessing plan, and exact
// duplicates execute once. The summary afterwards shows what the
// grouping saved — the CLI face of smatchd's POST /match/batch.
func runServiceBatch(ctx context.Context, listPath, dataPath, algoName string,
	limit uint64, timeout time.Duration, parallel int) error {
	if dataPath == "" {
		return fmt.Errorf("-d is required")
	}
	algo, err := sm.ParseAlgorithm(algoName)
	if err != nil {
		return err
	}
	g, err := sm.LoadGraph(dataPath)
	if err != nil {
		return err
	}

	f, err := os.Open(listPath)
	if err != nil {
		return err
	}
	defer f.Close()
	var paths []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		paths = append(paths, line)
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if len(paths) == 0 {
		return fmt.Errorf("%s lists no query files", listPath)
	}

	svc := service.New(service.Config{DefaultTimeLimit: timeout})
	defer svc.Close()
	if _, err := svc.RegisterGraph("data", g, false); err != nil {
		return err
	}

	fmt.Printf("data:    %v\nalgo:    %v\nqueries: %d from %s\n\n", g, algo, len(paths), listPath)
	items := make([]service.Request, len(paths))
	loadErrs := make([]error, len(paths))
	for i, p := range paths {
		q, err := sm.LoadGraph(p)
		if err != nil {
			// A bad path fails its line only; the rest still batch (the
			// service applies the same isolation to invalid queries).
			loadErrs[i] = err
			continue
		}
		items[i] = service.Request{Graph: "data", Query: q, Algorithm: algo,
			MaxEmbeddings: limit, TimeLimit: timeout, Parallel: parallel}
	}

	began := time.Now()
	results, err := svc.SubmitBatch(ctx, items)
	if err != nil {
		return err
	}
	elapsed := time.Since(began)

	var totalEmb uint64
	errored := 0
	for i := range results {
		if loadErrs[i] != nil {
			fmt.Printf("  query %3d: error: %v\n", i, loadErrs[i])
			errored++
			continue
		}
		if results[i].Err != nil {
			fmt.Printf("  query %3d: error: %v\n", i, results[i].Err)
			errored++
			continue
		}
		resp := results[i].Resp
		from := "built plan"
		if resp.CacheHit {
			from = "shared plan"
		}
		status := "solved"
		if resp.Result.TimedOut {
			status = "UNSOLVED"
		}
		fmt.Printf("  query %3d: %9d embeddings  %12v enumerate  [%s, %s]  %s\n",
			i, resp.Result.Embeddings, resp.Result.EnumTime.Round(time.Microsecond),
			from, status, paths[i])
		totalEmb += resp.Result.Embeddings
	}

	st := svc.Stats()
	fmt.Printf("\nbatch:            %d items in %v (%v per item)\n",
		len(items), elapsed.Round(time.Microsecond),
		(elapsed / time.Duration(len(items))).Round(time.Microsecond))
	fmt.Printf("total embeddings: %d  errors: %d\n", totalEmb, errored)
	fmt.Printf("groups:           %d (plan builds saved by grouping: %d)\n",
		st.Batches.Groups, st.Batches.Items-st.Batches.Groups-uint64(errored))
	fmt.Printf("deduplicated:     %d identical items served from one run\n", st.Batches.Deduped)
	fmt.Printf("plan cache:       %d bytes resident across %d plans\n",
		st.Cache.SizeBytes, st.Cache.Size)
	return nil
}
