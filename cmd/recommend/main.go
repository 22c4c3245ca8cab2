// Command recommend auto-tunes the matching configuration for a data
// graph: it samples query workloads from the graph, evaluates the
// component matrix (filters x orders x local-candidate methods), and
// prints which combination wins — an executable version of the paper's
// Section 6 recommendations for *your* graph rather than the paper's
// datasets.
//
// Usage:
//
//	recommend -d data.graph [-size 16] [-queries 10] [-timeout 2s] [-seed 1]
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"subgraphmatching/internal/core"
	"subgraphmatching/internal/enumerate"
	"subgraphmatching/internal/filter"
	"subgraphmatching/internal/graph"
	"subgraphmatching/internal/order"
	"subgraphmatching/internal/querygen"
	"subgraphmatching/internal/workload"
)

func main() {
	var (
		dataPath = flag.String("d", "", "data graph file (required)")
		size     = flag.Int("size", 16, "sampled query size")
		queries  = flag.Int("queries", 10, "queries per density class")
		timeout  = flag.Duration("timeout", 2*time.Second, "per-query time limit")
		seed     = flag.Int64("seed", 1, "query sampling seed")
	)
	flag.Parse()
	if err := run(os.Stdout, *dataPath, *size, *queries, *timeout, *seed); err != nil {
		fmt.Fprintln(os.Stderr, "recommend:", err)
		os.Exit(1)
	}
}

type contender struct {
	name string
	cfg  core.Config
}

// contenders is the component matrix evaluated per workload: the four
// filter choices crossed with the two strongest orders, plus the enum
// method comparison and the paper presets.
func contenders() []contender {
	var out []contender
	for _, f := range []filter.Method{filter.LDF, filter.GQL, filter.CFL, filter.DPIso} {
		for _, o := range []order.Method{order.GQL, order.RI} {
			out = append(out, contender{
				name: fmt.Sprintf("%v-filter + %v-order + intersect", f, o),
				cfg:  core.Config{Filter: f, Order: o, Local: enumerate.Intersect, FailingSets: true},
			})
		}
	}
	out = append(out,
		contender{"GQL-filter + GQL-order + scan (GraphQL)",
			core.Config{Filter: filter.GQL, Order: order.GQL, Local: enumerate.Scan}},
		contender{"DPiso preset (adaptive + failing sets)",
			core.Config{Filter: filter.DPIso, Order: order.DPIso, Local: enumerate.Intersect,
				Adaptive: true, FailingSets: true}},
		contender{"LDF-filter + RI-order + direct (RI)",
			core.Config{Filter: filter.LDF, Order: order.RI, Local: enumerate.Direct}},
	)
	return out
}

func run(w *os.File, dataPath string, size, queries int, timeout time.Duration, seed int64) error {
	if dataPath == "" {
		return fmt.Errorf("-d is required")
	}
	g, err := graph.Load(dataPath)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "data graph: %v\n", g)
	densityClass := "sparse"
	if g.AverageDegree() >= core.DenseGraphDegreeThreshold {
		densityClass = "dense"
	}
	fmt.Fprintf(w, "density class: %s (paper recommends %s ordering)\n\n",
		densityClass, map[string]string{"dense": "GQL", "sparse": "RI"}[densityClass])

	limits := core.Limits{MaxEmbeddings: 100_000, TimeLimit: timeout}
	type scored struct {
		name     string
		total    time.Duration
		unsolved int
	}
	for _, density := range []querygen.Density{querygen.Dense, querygen.Sparse} {
		qs, err := querygen.Generate(g, querygen.Config{
			NumVertices: size, Count: queries, Density: density, Seed: seed,
		})
		if err != nil {
			fmt.Fprintf(w, "%v queries of size %d: unavailable (%v)\n\n", density, size, err)
			continue
		}
		var results []scored
		for _, c := range contenders() {
			cfg := c.cfg
			agg := workload.Run(c.name, qs, g,
				func(*graph.Graph) core.Config { return cfg }, limits)
			results = append(results, scored{c.name, agg.MeanTotal, agg.Unsolved})
		}
		sort.Slice(results, func(i, j int) bool {
			if results[i].unsolved != results[j].unsolved {
				return results[i].unsolved < results[j].unsolved
			}
			return results[i].total < results[j].total
		})
		t := workload.Table{
			Title:  fmt.Sprintf("%v %d-vertex queries (%d sampled), best first", density, size, len(qs)),
			Header: []string{"configuration", "mean total", "unsolved"},
		}
		for _, r := range results {
			t.AddRow(r.name, workload.FmtMS(r.total)+"ms", fmt.Sprintf("%d", r.unsolved))
		}
		t.Render(w)
		fmt.Fprintf(w, "winner: %s\n\n", results[0].name)
	}
	return nil
}
