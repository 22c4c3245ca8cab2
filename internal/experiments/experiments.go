// Package experiments reproduces every table and figure of the paper's
// evaluation (Section 5). Each experiment renders the same rows/series
// the paper reports, over the dataset stand-ins of internal/datasets
// (see DESIGN.md for the substitution rationale). Absolute numbers differ
// from the paper — the stand-ins are scaled down and the hardware
// differs — but the comparative shapes are the deliverable.
package experiments

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"subgraphmatching/internal/core"
	"subgraphmatching/internal/datasets"
	"subgraphmatching/internal/graph"
	"subgraphmatching/internal/workload"
)

// Env configures an experiment run. The defaults are scaled down from
// the paper's methodology (200 queries per set, five-minute limit) so the
// full suite completes on a laptop; raise them to approach the paper's
// setup.
type Env struct {
	Out io.Writer

	// Datasets to include (paper short names); nil = all eight.
	Datasets []string
	// PerSet is the number of queries per query set (paper: 200).
	PerSet int
	// TimeLimit is the per-query enumeration budget (paper: 5 minutes).
	TimeLimit time.Duration
	// MaxEmbeddings stops a query after this many matches (paper: 1e5).
	MaxEmbeddings uint64
	// Seed makes query generation deterministic.
	Seed int64
	// SpectrumOrders is the number of random orders sampled per query in
	// the Figure 14 spectrum analysis (paper: 1000).
	SpectrumOrders int

	// CSV, when non-nil, additionally receives every result table as
	// CSV (for plotting pipelines).
	CSV io.Writer
}

// render writes a result table to the text output and, when configured,
// to the CSV sink.
func (e Env) render(t *workload.Table) {
	t.Render(e.Out)
	if e.CSV != nil {
		_ = t.RenderCSV(e.CSV)
	}
}

// WithDefaults fills unset fields.
func (e Env) WithDefaults() Env {
	if e.Out == nil {
		panic("experiments: Env.Out must be set")
	}
	if e.Datasets == nil {
		for _, i := range datasets.Catalog() {
			e.Datasets = append(e.Datasets, i.Name)
		}
	}
	if e.PerSet == 0 {
		e.PerSet = 10
	}
	if e.TimeLimit == 0 {
		e.TimeLimit = time.Second
	}
	if e.MaxEmbeddings == 0 {
		e.MaxEmbeddings = 100_000
	}
	if e.Seed == 0 {
		e.Seed = 1
	}
	if e.SpectrumOrders == 0 {
		e.SpectrumOrders = 200
	}
	return e
}

// Limits returns the per-query limits of the environment.
func (e Env) Limits() core.Limits {
	return core.Limits{MaxEmbeddings: e.MaxEmbeddings, TimeLimit: e.TimeLimit}
}

// Runner is an experiment entry point.
type Runner func(Env) error

// Registry maps experiment names (as used by cmd/experiments) to
// runners, in the paper's presentation order.
func Registry() []struct {
	Name, Description string
	Run               Runner
} {
	return []struct {
		Name, Description string
		Run               Runner
	}{
		{"fig7", "preprocessing time of the filtering methods", Fig7},
		{"fig8", "candidate-set sizes vs LDF and STEADY baselines", Fig8},
		{"fig9", "speedup from set-intersection local candidates", Fig9},
		{"fig10", "hybrid vs QFilter-style set intersection", Fig10},
		{"fig11", "enumeration time of the ordering methods", Fig11},
		{"fig12", "std-dev of enumeration time by query size", Fig12},
		{"fig13", "query time categories per ordering method", Fig13},
		{"table5", "unsolved queries without/with failing sets", Table5},
		{"fig14", "spectrum analysis of random matching orders", Fig14},
		{"table6", "speedup of best sampled order over GQL/RI", Table6},
		{"fig15", "effect of failing-sets pruning", Fig15},
		{"fig16", "overall performance of optimized vs original algorithms", Fig16},
		{"fig17", "scalability on synthetic RMAT graphs", Fig17},
		{"fig18", "scalability on the friendster stand-in", Fig18},
		{"ablation", "design-choice sweeps beyond the paper's figures", Ablation},
	}
}

// Lookup finds a registered experiment by name.
func Lookup(name string) (Runner, error) {
	for _, e := range Registry() {
		if e.Name == name {
			return e.Run, nil
		}
	}
	return nil, fmt.Errorf("experiments: unknown experiment %q", name)
}

// --- dataset and query-set caches -----------------------------------

var (
	cacheMu    sync.Mutex
	graphCache = map[string]*graph.Graph{}
	setCache   = map[string][]workload.QuerySet{}
)

// dataGraph returns the (cached) stand-in graph for a dataset name.
func dataGraph(name string) (*graph.Graph, error) {
	cacheMu.Lock()
	defer cacheMu.Unlock()
	if g, ok := graphCache[name]; ok {
		return g, nil
	}
	g, err := datasets.Generate(name)
	if err != nil {
		return nil, err
	}
	graphCache[name] = g
	return g, nil
}

// querySets returns the (cached) standard query sets for a dataset.
func querySets(env Env, name string) ([]workload.QuerySet, error) {
	key := fmt.Sprintf("%s/%d/%d", name, env.PerSet, env.Seed)
	cacheMu.Lock()
	if qs, ok := setCache[key]; ok {
		cacheMu.Unlock()
		return qs, nil
	}
	cacheMu.Unlock()
	g, err := dataGraph(name)
	if err != nil {
		return nil, err
	}
	info, err := datasets.Lookup(name)
	if err != nil {
		return nil, err
	}
	qs := workload.StandardQuerySets(g, info.MaxQuerySize, env.PerSet, env.Seed)
	cacheMu.Lock()
	setCache[key] = qs
	cacheMu.Unlock()
	return qs, nil
}

// defaultSets returns the dataset's default dense and sparse sets: the
// largest size for which each density class exists (the paper defaults
// to Q32D/Q32S, or Q20D/Q20S on hu/wn).
func defaultSets(env Env, name string) (dense, sparse *workload.QuerySet, err error) {
	qs, err := querySets(env, name)
	if err != nil {
		return nil, nil, err
	}
	sort.SliceStable(qs, func(i, j int) bool { return qs[i].Size < qs[j].Size })
	for i := range qs {
		s := &qs[i]
		switch {
		case s.Name[len(s.Name)-1] == 'D':
			dense = s
		case s.Name[len(s.Name)-1] == 'S':
			sparse = s
		}
	}
	if dense == nil && sparse == nil {
		return nil, nil, fmt.Errorf("experiments: dataset %s yielded no dense/sparse query sets", name)
	}
	return dense, sparse, nil
}

// setBySize returns the query set with the given name suffix and size,
// or nil.
func setBySize(qs []workload.QuerySet, name string) *workload.QuerySet {
	for i := range qs {
		if qs[i].Name == name {
			return &qs[i]
		}
	}
	return nil
}

// section prints an experiment header.
func section(w io.Writer, title, paperRef string) {
	fmt.Fprintf(w, "=== %s ===\n", title)
	fmt.Fprintf(w, "(reproduces %s; stand-in datasets, scaled limits — compare shapes, not absolutes)\n\n", paperRef)
}
