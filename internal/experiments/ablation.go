package experiments

import (
	"fmt"
	"time"

	"subgraphmatching/internal/core"
	"subgraphmatching/internal/enumerate"
	"subgraphmatching/internal/filter"
	"subgraphmatching/internal/graph"
	"subgraphmatching/internal/order"
	"subgraphmatching/internal/workload"
)

// Ablation sweeps the design choices DESIGN.md calls out, beyond the
// paper's own figures: GraphQL's refinement rounds and profile radius,
// symmetry breaking, and parallel enumeration speedup.
func Ablation(env Env) error {
	env = env.WithDefaults()
	section(env.Out, "Ablations: refinement rounds, profile radius, symmetry, parallelism", "DESIGN.md section 5")
	const ds = "yt"
	g, err := dataGraph(ds)
	if err != nil {
		return err
	}
	dense, sparse, err := defaultSets(env, ds)
	if err != nil {
		return err
	}
	set := dense
	if set == nil {
		set = sparse
	}

	// (a) GraphQL refinement rounds: pruning power vs filter time.
	ta := workload.Table{
		Title:  fmt.Sprintf("(a) GraphQL global-refinement rounds on %s/%s", ds, set.Name),
		Header: []string{"rounds", "mean |C(u)|", "filter ms"},
	}
	for _, rounds := range []int{1, 2, 4, 8} {
		var sumCand float64
		var sumTime time.Duration
		for _, q := range set.Queries {
			t0 := time.Now()
			cand, _, err := filter.RunOpts(filter.GQL, q, g, filter.Options{GQLRounds: rounds})
			if err != nil {
				return err
			}
			sumTime += time.Since(t0)
			sumCand += filter.MeanCandidates(cand)
		}
		n := float64(len(set.Queries))
		ta.AddRow(fmt.Sprintf("%d", rounds),
			workload.FmtCount(sumCand/n), workload.FmtMS(sumTime/time.Duration(len(set.Queries))))
	}
	env.render(&ta)

	// (b) Profile radius of the local pruning.
	tb := workload.Table{
		Title:  fmt.Sprintf("(b) GraphQL profile radius on %s/%s", ds, set.Name),
		Header: []string{"radius", "mean |C(u)|", "filter ms"},
	}
	for _, radius := range []int{1, 2, 3} {
		var sumCand float64
		var sumTime time.Duration
		for _, q := range set.Queries {
			t0 := time.Now()
			cand, _, err := filter.RunOpts(filter.GQL, q, g, filter.Options{GQLRadius: radius})
			if err != nil {
				return err
			}
			sumTime += time.Since(t0)
			sumCand += filter.MeanCandidates(cand)
		}
		n := float64(len(set.Queries))
		tb.AddRow(fmt.Sprintf("%d", radius),
			workload.FmtCount(sumCand/n), workload.FmtMS(sumTime/time.Duration(len(set.Queries))))
	}
	env.render(&tb)

	// (c) Symmetry breaking: search nodes with and without.
	tc := workload.Table{
		Title:  fmt.Sprintf("(c) symmetry breaking on %s/%s", ds, set.Name),
		Header: []string{"mode", "mean nodes", "mean enum ms"},
	}
	for _, sym := range []bool{false, true} {
		cfg := core.Config{Filter: filter.GQL, Order: order.GQL, Local: enumerate.Intersect, SymmetryBreaking: sym}
		agg := workload.Run("", set.Queries, g,
			func(*graph.Graph) core.Config { return cfg }, env.Limits())
		name := "baseline"
		if sym {
			name = "symmetry-broken"
		}
		var nodes float64
		for _, q := range set.Queries {
			res, err := core.Match(q, g, cfg, env.Limits())
			if err == nil {
				nodes += float64(res.Nodes)
			}
		}
		tc.AddRow(name, workload.FmtCount(nodes/float64(len(set.Queries))), workload.FmtMS(agg.MeanEnum))
	}
	env.render(&tc)

	// (d) Historical baselines: Ullmann -> VF2 -> VF2++ on small dense
	// queries (the lineage claim of the paper's introduction).
	qs, err := querySets(env, ds)
	if err != nil {
		return err
	}
	if small := setBySize(qs, "Q8D"); small != nil {
		tbl := workload.Table{
			Title:  fmt.Sprintf("(d) baseline lineage on %s/Q8D", ds),
			Header: []string{"algorithm", "mean total ms", "unsolved"},
		}
		for _, a := range []core.Algorithm{core.Ullmann, core.VF2Classic, core.VF2PP} {
			agg := workload.Run(a.String(), small.Queries, g,
				func(q *graph.Graph) core.Config { return core.PresetConfig(a, q, g) }, env.Limits())
			tbl.AddRow(a.String(), workload.FmtMS(agg.MeanTotal), fmt.Sprintf("%d", agg.Unsolved))
		}
		env.render(&tbl)
	}

	// (e) Parallel enumeration speedup on the whole default set.
	td := workload.Table{
		Title:  fmt.Sprintf("(e) parallel enumeration on %s/%s", ds, set.Name),
		Header: []string{"workers", "wall ms (set)", "speedup"},
	}
	cfg := core.OrderingStudyConfig(order.GQL, true)
	var base time.Duration
	for _, workers := range []int{1, 2, 4, 8} {
		limits := env.Limits()
		limits.Parallel = workers
		t0 := time.Now()
		for _, q := range set.Queries {
			if _, err := core.Match(q, g, cfg, limits); err != nil {
				return err
			}
		}
		wall := time.Since(t0)
		if workers == 1 {
			base = wall
		}
		td.AddRow(fmt.Sprintf("%d", workers), workload.FmtMS(wall),
			workload.FmtSpeedup(float64(base)/float64(wall)))
	}
	env.render(&td)
	return nil
}
