package experiments

import (
	"time"

	"subgraphmatching/internal/candspace"
	"subgraphmatching/internal/filter"
	"subgraphmatching/internal/graph"
	"subgraphmatching/internal/workload"
)

// The filtering study of Section 5.1: preprocessing time (Figure 7) and
// pruning power (Figure 8) of the four advanced filters, with LDF and
// STEADY as Figure 8's baselines.

var filterStudyMethods = []filter.Method{filter.GQL, filter.CFL, filter.CECI, filter.DPIso}
var candidateStudyMethods = []filter.Method{filter.LDF, filter.GQL, filter.CFL, filter.CECI, filter.DPIso, filter.Steady}

// filterOutcome is one (method, query) measurement.
type filterOutcome struct {
	prep       time.Duration
	candidates float64
}

// runFilterOnce measures one filtering method on one query, including
// the auxiliary-structure construction the method's algorithm performs
// (GraphQL and the baselines build none, CFL builds the tree index, CECI
// and DP-iso build the full index).
func runFilterOnce(m filter.Method, q, g *graph.Graph) (filterOutcome, error) {
	t0 := time.Now()
	cand, err := filter.Run(m, q, g)
	if err != nil {
		return filterOutcome{}, err
	}
	switch m {
	case filter.CFL:
		if !filter.AnyEmpty(cand) {
			tree := graph.NewBFSTree(q, filter.Root(filter.CFL, q, g, 1))
			candspace.Build(q, g, cand, tree.Parent, 1)
		}
	case filter.CECI, filter.DPIso:
		if !filter.AnyEmpty(cand) {
			candspace.BuildFull(q, g, cand)
		}
	}
	return filterOutcome{
		prep:       time.Since(t0),
		candidates: filter.MeanCandidates(cand),
	}, nil
}

// filterStudyMeans runs a method over a query set and returns mean
// preprocessing time and mean candidate count.
func filterStudyMeans(m filter.Method, set []*graph.Graph, g *graph.Graph) (time.Duration, float64) {
	var sumPrep time.Duration
	sumCand := 0.0
	n := 0
	for _, q := range set {
		out, err := runFilterOnce(m, q, g)
		if err != nil {
			continue
		}
		n++
		sumPrep += out.prep
		sumCand += out.candidates
	}
	if n == 0 {
		return 0, 0
	}
	return sumPrep / time.Duration(n), sumCand / float64(n)
}

// Fig7 reproduces Figure 7: preprocessing time of the filtering methods
// (a) across datasets, (b) across query sizes on yt, (c) dense vs sparse.
func Fig7(env Env) error {
	env = env.WithDefaults()
	section(env.Out, "Figure 7: preprocessing time of filtering methods (ms)", "Figure 7(a-c)")

	// (a) across datasets, default dense sets.
	ta := workload.Table{Title: "(a) by dataset (default dense query set)", Header: []string{"dataset"}}
	for _, m := range filterStudyMethods {
		ta.Header = append(ta.Header, m.String())
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
		for _, m := range filterStudyMethods {
			prep, _ := filterStudyMeans(m, set.Queries, g)
			row = append(row, workload.FmtMS(prep))
		}
		ta.AddRow(row...)
	}
	env.render(&ta)

	// (b) vary |V(q)| on yt.
	if err := fig7bc(env, true); err != nil {
		return err
	}
	// (c) dense vs sparse on yt.
	return fig7bc(env, false)
}

func fig7bc(env Env, varySize bool) error {
	const ds = "yt"
	g, err := dataGraph(ds)
	if err != nil {
		return err
	}
	qs, err := querySets(env, ds)
	if err != nil {
		return err
	}
	var t workload.Table
	if varySize {
		t.Title = "(b) by query size on " + ds + " (dense sets)"
	} else {
		t.Title = "(c) dense vs sparse on " + ds + " (default size)"
	}
	t.Header = []string{"set"}
	for _, m := range filterStudyMethods {
		t.Header = append(t.Header, m.String())
	}
	var sets []*workload.QuerySet
	if varySize {
		for i := range qs {
			s := &qs[i]
			if s.Name == "Q4" || s.Name[len(s.Name)-1] == 'D' {
				sets = append(sets, s)
			}
		}
	} else {
		dense, sparse, err := defaultSets(env, ds)
		if err != nil {
			return err
		}
		if dense != nil {
			sets = append(sets, dense)
		}
		if sparse != nil {
			sets = append(sets, sparse)
		}
	}
	for _, s := range sets {
		row := []string{s.Name}
		for _, m := range filterStudyMethods {
			prep, _ := filterStudyMeans(m, s.Queries, g)
			row = append(row, workload.FmtMS(prep))
		}
		t.AddRow(row...)
	}
	env.render(&t)
	return nil
}

// Fig8 reproduces Figure 8: the number of candidate vertices
// (1/|V(q)|) sum |C(u)| per filtering method, with the LDF and STEADY
// baselines.
func Fig8(env Env) error {
	env = env.WithDefaults()
	section(env.Out, "Figure 8: number of candidate vertices", "Figure 8(a-c)")

	ta := workload.Table{Title: "(a) by dataset (default dense query set)", Header: []string{"dataset"}}
	for _, m := range candidateStudyMethods {
		ta.Header = append(ta.Header, m.String())
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
		for _, m := range candidateStudyMethods {
			_, cands := filterStudyMeans(m, set.Queries, g)
			row = append(row, workload.FmtCount(cands))
		}
		ta.AddRow(row...)
	}
	env.render(&ta)

	// (b) by query size on yt; (c) dense vs sparse.
	const ds = "yt"
	g, err := dataGraph(ds)
	if err != nil {
		return err
	}
	qs, err := querySets(env, ds)
	if err != nil {
		return err
	}
	tb := workload.Table{Title: "(b) by query size on " + ds + " (dense sets)", Header: []string{"set"}}
	for _, m := range candidateStudyMethods {
		tb.Header = append(tb.Header, m.String())
	}
	for i := range qs {
		s := &qs[i]
		if s.Name != "Q4" && s.Name[len(s.Name)-1] != 'D' {
			continue
		}
		row := []string{s.Name}
		for _, m := range candidateStudyMethods {
			_, cands := filterStudyMeans(m, s.Queries, g)
			row = append(row, workload.FmtCount(cands))
		}
		tb.AddRow(row...)
	}
	env.render(&tb)

	dense, sparse, err := defaultSets(env, ds)
	if err != nil {
		return err
	}
	tc := workload.Table{Title: "(c) dense vs sparse on " + ds, Header: tb.Header}
	for _, s := range []*workload.QuerySet{dense, sparse} {
		if s == nil {
			continue
		}
		row := []string{s.Name}
		for _, m := range candidateStudyMethods {
			_, cands := filterStudyMeans(m, s.Queries, g)
			row = append(row, workload.FmtCount(cands))
		}
		tc.AddRow(row...)
	}
	env.render(&tc)
	return nil
}
