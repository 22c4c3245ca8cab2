package experiments

import (
	"time"

	"subgraphmatching/internal/core"
	"subgraphmatching/internal/enumerate"
	"subgraphmatching/internal/filter"
	"subgraphmatching/internal/graph"
	"subgraphmatching/internal/intersect"
	"subgraphmatching/internal/order"
	"subgraphmatching/internal/workload"
)

// The enumeration study of Section 5.2: the speedup obtained by giving
// each algorithm the full-edge auxiliary structure and the
// set-intersection local candidate computation (Figure 9), and the
// comparison of intersection kernels (Figure 10).

// fig9Pair is an algorithm's original local-candidate setup and its
// optimized counterpart. RI is omitted as in the paper (it shares
// QuickSI's computation). The optimized arms run the default kernel
// policy, the paper's Hybrid merge/galloping switch.
type fig9Pair struct {
	name string
	base core.Config
	opt  core.Config
}

func fig9Pairs() []fig9Pair {
	return []fig9Pair{
		{
			name: "QSI",
			base: core.Config{Filter: filter.LDF, Order: order.QSI, Local: enumerate.Direct},
			opt:  core.Config{Filter: filter.LDF, Order: order.QSI, Local: enumerate.Intersect},
		},
		{
			name: "GQL",
			base: core.Config{Filter: filter.GQL, Order: order.GQL, Local: enumerate.Scan},
			opt:  core.Config{Filter: filter.GQL, Order: order.GQL, Local: enumerate.Intersect},
		},
		{
			name: "CFL",
			base: core.Config{Filter: filter.CFL, Order: order.CFL, Local: enumerate.TreeEdge},
			opt:  core.Config{Filter: filter.CFL, Order: order.CFL, Local: enumerate.Intersect},
		},
		{
			name: "2PP",
			base: core.Config{Filter: filter.LDF, Order: order.VF2PP, Local: enumerate.Direct, VF2PPRules: true},
			opt:  core.Config{Filter: filter.LDF, Order: order.VF2PP, Local: enumerate.Intersect},
		},
	}
}

// meanEnum runs a config over a query set and returns the mean
// enumeration time with the paper's killed-query convention.
func meanEnum(set []*graph.Graph, g *graph.Graph, cfg core.Config, limits core.Limits) time.Duration {
	agg := workload.Run("", set, g, func(*graph.Graph) core.Config { return cfg }, limits)
	return agg.MeanEnum
}

// Fig9 reproduces Figure 9: the average enumeration speedup each
// algorithm gains from the set-intersection optimization, per dataset.
func Fig9(env Env) error {
	env = env.WithDefaults()
	section(env.Out, "Figure 9: speedup from set-intersection local candidates", "Figure 9")
	t := workload.Table{Title: "enumeration-time speedup (original / optimized)", Header: []string{"dataset"}}
	pairs := fig9Pairs()
	for _, p := range pairs {
		t.Header = append(t.Header, p.name)
	}
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
		for _, p := range pairs {
			base := meanEnum(set.Queries, g, p.base, env.Limits())
			opt := meanEnum(set.Queries, g, p.opt, env.Limits())
			if opt <= 0 {
				row = append(row, "-")
				continue
			}
			row = append(row, workload.FmtSpeedup(float64(base)/float64(opt)))
		}
		t.AddRow(row...)
	}
	env.render(&t)
	return nil
}

// Fig10 reproduces Figure 10: enumeration time of the optimized GraphQL
// algorithm with the Hybrid kernel vs the QFilter-style block kernel,
// (a) across datasets and (b) across dense query sizes on yt.
func Fig10(env Env) error {
	env = env.WithDefaults()
	section(env.Out, "Figure 10: set intersection methods (enumeration ms)", "Figure 10(a-b)")
	hybrid := core.Config{Filter: filter.GQL, Order: order.GQL, Local: enumerate.Intersect}
	qfilter := core.Config{Filter: filter.GQL, Order: order.GQL, Local: enumerate.Intersect, Kernel: intersect.PolicyBlock}

	ta := workload.Table{Title: "(a) by dataset (default dense query set)",
		Header: []string{"dataset", "Hybrid", "QFilter"}}
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
		h := meanEnum(set.Queries, g, hybrid, env.Limits())
		q := meanEnum(set.Queries, g, qfilter, env.Limits())
		ta.AddRow(ds+"/"+set.Name, workload.FmtMS(h), workload.FmtMS(q))
	}
	env.render(&ta)

	const ds = "yt"
	g, err := dataGraph(ds)
	if err != nil {
		return err
	}
	qs, err := querySets(env, ds)
	if err != nil {
		return err
	}
	tb := workload.Table{Title: "(b) by dense query size on " + ds,
		Header: []string{"set", "Hybrid", "QFilter"}}
	for i := range qs {
		s := &qs[i]
		if s.Name != "Q4" && s.Name[len(s.Name)-1] != 'D' {
			continue
		}
		h := meanEnum(s.Queries, g, hybrid, env.Limits())
		q := meanEnum(s.Queries, g, qfilter, env.Limits())
		tb.AddRow(s.Name, workload.FmtMS(h), workload.FmtMS(q))
	}
	env.render(&tb)
	return nil
}
