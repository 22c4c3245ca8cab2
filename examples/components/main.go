// Component mix-and-match: the study's central idea is that a subgraph
// matching algorithm decomposes into a filtering method, an ordering
// method and a local-candidate computation that can be recombined
// freely. This example runs one query under several combinations and
// prints the side-by-side comparison the paper's framework enables —
// including the classic result that set-intersection local candidates
// (Algorithm 5) dominate candidate scanning (Algorithm 3).
package main

import (
	"fmt"
	"log"
	"time"

	sm "subgraphmatching"
)

func main() {
	data, err := sm.Dataset("hp") // HPRD protein network stand-in
	if err != nil {
		log.Fatal(err)
	}
	queries, err := sm.GenerateQueries(data, sm.QueryConfig{
		NumVertices: 16, Count: 1, Density: sm.QueryDense, Seed: 3,
	})
	if err != nil {
		log.Fatal(err)
	}
	q := queries[0]
	fmt.Println("data: ", data)
	fmt.Println("query:", q)
	fmt.Println()

	type combo struct {
		name string
		cfg  sm.Config
	}
	combos := []combo{
		{"LDF filter + QSI order + direct (QuickSI)",
			sm.Config{Filter: sm.FilterLDF, Order: sm.OrderQSI, Local: sm.LocalDirect}},
		{"GQL filter + GQL order + scan (GraphQL)",
			sm.Config{Filter: sm.FilterGQL, Order: sm.OrderGQL, Local: sm.LocalScan}},
		{"GQL filter + GQL order + intersect",
			sm.Config{Filter: sm.FilterGQL, Order: sm.OrderGQL, Local: sm.LocalIntersect}},
		{"GQL filter + RI order + intersect",
			sm.Config{Filter: sm.FilterGQL, Order: sm.OrderRI, Local: sm.LocalIntersect}},
		{"CFL filter + CFL order + tree-edge (CFL)",
			sm.Config{Filter: sm.FilterCFL, Order: sm.OrderCFL, Local: sm.LocalTreeEdge}},
		{"DPiso filter + adaptive order + intersect + failing sets (DP-iso)",
			sm.Config{Filter: sm.FilterDPIso, Order: sm.OrderDPIso, Local: sm.LocalIntersect,
				Adaptive: true, FailingSets: true}},
	}

	fmt.Printf("%-66s %10s %9s %11s %11s %9s\n",
		"configuration", "embeddings", "nodes", "preprocess", "enumerate", "cand/u")
	for _, c := range combos {
		cfg := c.cfg
		res, err := sm.Match(q, data, sm.Options{
			Custom: &cfg, MaxEmbeddings: 100_000, TimeLimit: 30 * time.Second,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-66s %10d %9d %11v %11v %9.1f\n",
			c.name, res.Embeddings, res.Nodes,
			res.PreprocessTime().Round(time.Microsecond),
			res.EnumTime.Round(time.Microsecond),
			res.MeanCandidates)
	}
	fmt.Println("\nEvery combination returns the same embedding count — the components")
	fmt.Println("change only how much work the search does to find them.")
}
