package experiments

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"subgraphmatching/internal/core"
	"subgraphmatching/internal/filter"
	"subgraphmatching/internal/graph"
	"subgraphmatching/internal/order"
	"subgraphmatching/internal/workload"
)

// The spectrum analysis of Section 5.3 (Figure 14, Table 6): sample
// random matching orders per query, compare their enumeration times with
// the orders GQL and RI generate, and quantify how far from the sampled
// optimum the heuristics land.

// runWithOrder evaluates one query with a fixed matching order under the
// ordering-study setup (GraphQL candidates, Algorithm 5).
func runWithOrder(q, g *graph.Graph, phi []graph.Vertex, limits core.Limits) (time.Duration, bool) {
	cfg := core.OrderingStudyConfig(order.GQL, false)
	cfg.FixedOrder = phi
	res, err := core.Match(q, g, cfg, limits)
	if err != nil {
		return 0, false
	}
	t := res.EnumTime
	if res.TimedOut && limits.TimeLimit > 0 {
		t = limits.TimeLimit
	}
	return t, true
}

// spectrum samples n random orders for q and returns their enumeration
// times (killed runs at the limit).
func spectrum(q, g *graph.Graph, n int, seed int64, limits core.Limits) []time.Duration {
	rng := rand.New(rand.NewSource(seed))
	out := make([]time.Duration, 0, n)
	for i := 0; i < n; i++ {
		phi := order.Random(rng, q)
		if t, ok := runWithOrder(q, g, phi, limits); ok {
			out = append(out, t)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// methodTime evaluates one query with a named ordering method under the
// same setup (GraphQL candidates feed the order, as in Section 5.3).
func methodTime(q, g *graph.Graph, om order.Method, limits core.Limits) (time.Duration, bool) {
	cand, err := filter.Run(filter.GQL, q, g)
	if err != nil {
		return 0, false
	}
	if filter.AnyEmpty(cand) {
		return 0, true
	}
	phi, err := order.Compute(om, q, g, cand)
	if err != nil {
		return 0, false
	}
	return runWithOrder(q, g, phi, limits)
}

// Fig14 reproduces Figure 14: the distribution of enumeration times over
// sampled random orders for one dense and one sparse query on yt,
// against the GQL and RI orders.
func Fig14(env Env) error {
	env = env.WithDefaults()
	section(env.Out, "Figure 14: spectrum analysis of matching orders on yt", "Figure 14")
	const ds = "yt"
	g, err := dataGraph(ds)
	if err != nil {
		return err
	}
	dense, sparse, err := defaultSets(env, ds)
	if err != nil {
		return err
	}
	t := workload.Table{
		Title:  fmt.Sprintf("%d random orders per query (times in ms; killed at the limit)", env.SpectrumOrders),
		Header: []string{"query", "min", "p25", "median", "p75", "max", "GQL", "RI"},
	}
	for _, s := range []*workload.QuerySet{dense, sparse} {
		if s == nil || len(s.Queries) == 0 {
			continue
		}
		q := s.Queries[0]
		times := spectrum(q, g, env.SpectrumOrders, env.Seed, env.Limits())
		if len(times) == 0 {
			continue
		}
		pct := func(p float64) time.Duration { return times[int(p*float64(len(times)-1))] }
		gql, _ := methodTime(q, g, order.GQL, env.Limits())
		ri, _ := methodTime(q, g, order.RI, env.Limits())
		t.AddRow(
			fmt.Sprintf("q%d%s", q.NumVertices(), string(s.Name[len(s.Name)-1])),
			workload.FmtMS(times[0]), workload.FmtMS(pct(0.25)), workload.FmtMS(pct(0.5)),
			workload.FmtMS(pct(0.75)), workload.FmtMS(times[len(times)-1]),
			workload.FmtMS(gql), workload.FmtMS(ri),
		)
	}
	env.render(&t)
	return nil
}

// Table6 reproduces Table 6: for every query in yt's default dense and
// sparse sets, the speedup of the best order (among sampled random
// orders and every study ordering method) over GQL and RI; reported as
// mean, std, max and the count of queries with speedup above 10.
func Table6(env Env) error {
	env = env.WithDefaults()
	section(env.Out, "Table 6: speedup of best sampled order over GQL and RI on yt", "Table 6")
	const ds = "yt"
	g, err := dataGraph(ds)
	if err != nil {
		return err
	}
	dense, sparse, err := defaultSets(env, ds)
	if err != nil {
		return err
	}
	samples := env.SpectrumOrders / 4
	if samples < 10 {
		samples = 10
	}
	t := workload.Table{
		Title:  fmt.Sprintf("%d sampled orders per query", samples),
		Header: []string{"algorithm", "set", "mean", "std", "max", ">10"},
	}
	for _, s := range []*workload.QuerySet{dense, sparse} {
		if s == nil {
			continue
		}
		var gqlSpeedups, riSpeedups []float64
		for qi, q := range s.Queries {
			best := time.Duration(0)
			times := spectrum(q, g, samples, env.Seed+int64(qi), env.Limits())
			if len(times) > 0 {
				best = times[0]
			}
			for _, om := range orderingStudyMethods {
				if tm, ok := methodTime(q, g, om, env.Limits()); ok && (best == 0 || tm < best) {
					best = tm
				}
			}
			if best <= 0 {
				best = 1
			}
			if gql, ok := methodTime(q, g, order.GQL, env.Limits()); ok {
				gqlSpeedups = append(gqlSpeedups, float64(gql)/float64(best))
			}
			if ri, ok := methodTime(q, g, order.RI, env.Limits()); ok {
				riSpeedups = append(riSpeedups, float64(ri)/float64(best))
			}
		}
		for _, e := range []struct {
			name string
			sp   []float64
		}{{"GQL", gqlSpeedups}, {"RI", riSpeedups}} {
			name, sp := e.name, e.sp
			st := workload.Summarize(sp, 10)
			t.AddRow(name, s.Name,
				fmt.Sprintf("%.1f", st.Mean), fmt.Sprintf("%.1f", st.Std),
				fmt.Sprintf("%.1f", st.Max), fmt.Sprintf("%d", st.CountAbove))
		}
	}
	env.render(&t)
	return nil
}
