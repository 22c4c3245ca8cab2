// Package workload runs query sets through the matching pipeline and
// aggregates the paper's metrics: preprocessing time, enumeration time
// (killed queries recorded at the time limit), candidate counts, memory,
// unsolved counts, standard deviations, and the short/median/long/
// unsolved query categories of Figure 13.
package workload

import (
	"fmt"
	"math"
	"time"

	"subgraphmatching/internal/core"
	"subgraphmatching/internal/graph"
	"subgraphmatching/internal/querygen"
)

// QuerySet is a named collection of query graphs, e.g. Q8D.
type QuerySet struct {
	Name    string
	Density querygen.Density
	Size    int
	Queries []*graph.Graph
}

// StandardSizes returns the paper's query-set sizes for a dataset whose
// largest set is maxSize: 4..20 for Human/WordNet, 4..32 otherwise
// (Table 4).
func StandardSizes(maxSize int) []int {
	if maxSize <= 20 {
		return []int{4, 8, 12, 16, 20}
	}
	return []int{4, 8, 16, 24, 32}
}

// StandardQuerySets generates the paper's query sets for g: Q4 (no
// density class) plus dense and sparse sets for every larger size, with
// perSet queries each. Sets that the data graph cannot supply (e.g. a
// near-tree graph has no dense queries) are skipped silently, mirroring
// the paper's per-dataset set selection.
func StandardQuerySets(g *graph.Graph, maxSize, perSet int, seed int64) []QuerySet {
	var out []QuerySet
	if qs, err := querygen.Generate(g, querygen.Config{
		NumVertices: 4, Count: perSet, Density: querygen.Any, Seed: seed,
	}); err == nil {
		out = append(out, QuerySet{Name: "Q4", Density: querygen.Any, Size: 4, Queries: qs})
	}
	for _, size := range StandardSizes(maxSize) {
		if size == 4 {
			continue
		}
		for _, d := range []querygen.Density{querygen.Dense, querygen.Sparse} {
			suffix := "D"
			if d == querygen.Sparse {
				suffix = "S"
			}
			qs, err := querygen.Generate(g, querygen.Config{
				NumVertices: size, Count: perSet, Density: d,
				Seed: seed + int64(size)*10 + int64(d),
			})
			if err != nil {
				continue
			}
			out = append(out, QuerySet{
				Name:    fmt.Sprintf("Q%d%s", size, suffix),
				Density: d, Size: size, Queries: qs,
			})
		}
	}
	return out
}

// Outcome records one query's execution for aggregation.
type Outcome struct {
	Result *core.Result
	Err    error
}

// Aggregate summarizes a query set's outcomes.
type Aggregate struct {
	Label   string
	Queries int
	Errors  int

	Unsolved int // timed-out queries

	// Times in the paper's convention: enumeration time of unsolved
	// queries is recorded as the time limit.
	MeanPreprocess time.Duration
	MeanEnum       time.Duration
	StdEnum        time.Duration
	MeanTotal      time.Duration

	MeanCandidates float64
	MeanEmbeddings float64
	MeanMemory     int64

	// Figure 13 categories, thresholds relative to the time limit
	// (paper: <1s, <60s, <300s of a 300s limit).
	Short, Median, Long int
}

// Categorize thresholds: shortFrac and medianFrac of the time limit.
const (
	shortFrac  = 1.0 / 300.0
	medianFrac = 60.0 / 300.0
)

// RunEach executes every query of the set and returns per-query
// outcomes; Table 5's fail-all analysis needs the per-query solved
// status across algorithms.
func RunEach(set []*graph.Graph, g *graph.Graph,
	cfgFor func(q *graph.Graph) core.Config, limits core.Limits) []Outcome {
	out := make([]Outcome, len(set))
	for i, q := range set {
		res, err := core.Match(q, g, cfgFor(q), limits)
		out[i] = Outcome{Result: res, Err: err}
	}
	return out
}

// Run executes every query of the set with the config produced by cfgFor
// (called per query so size-dependent presets work) and aggregates.
func Run(label string, set []*graph.Graph, g *graph.Graph,
	cfgFor func(q *graph.Graph) core.Config, limits core.Limits) Aggregate {

	agg := Aggregate{Label: label, Queries: len(set)}
	if len(set) == 0 {
		return agg
	}
	enumTimes := make([]float64, 0, len(set))
	var sumPre, sumEnum, sumTotal time.Duration
	var sumCand, sumEmb float64
	var sumMem int64
	n := 0
	for _, q := range set {
		res, err := core.Match(q, g, cfgFor(q), limits)
		if err != nil {
			agg.Errors++
			continue
		}
		n++
		enum := res.EnumTime
		if res.TimedOut && limits.TimeLimit > 0 {
			enum = limits.TimeLimit // paper: killed queries count at the limit
			agg.Unsolved++
		}
		switch {
		case limits.TimeLimit == 0 || !res.TimedOut && enum < time.Duration(shortFrac*float64(limits.TimeLimit)):
			agg.Short++
		case !res.TimedOut && enum < time.Duration(medianFrac*float64(limits.TimeLimit)):
			agg.Median++
		case !res.TimedOut:
			agg.Long++
		}
		sumPre += res.PreprocessTime()
		sumEnum += enum
		sumTotal += res.PreprocessTime() + enum
		sumCand += res.MeanCandidates
		sumEmb += float64(res.Embeddings)
		sumMem += res.MemoryBytes
		enumTimes = append(enumTimes, float64(enum))
	}
	if n == 0 {
		return agg
	}
	agg.MeanPreprocess = sumPre / time.Duration(n)
	agg.MeanEnum = sumEnum / time.Duration(n)
	agg.MeanTotal = sumTotal / time.Duration(n)
	agg.MeanCandidates = sumCand / float64(n)
	agg.MeanEmbeddings = sumEmb / float64(n)
	agg.MeanMemory = sumMem / int64(n)
	agg.StdEnum = time.Duration(stddev(enumTimes))
	return agg
}

func stddev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	mean := 0.0
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	v := 0.0
	for _, x := range xs {
		v += (x - mean) * (x - mean)
	}
	return math.Sqrt(v / float64(len(xs)))
}

// Stats holds summary statistics of a float sample.
type Stats struct {
	Mean, Std, Max float64
	CountAbove     int // observations above the Above threshold
}

// Summarize computes mean/std/max and the count of values exceeding
// `above`.
func Summarize(xs []float64, above float64) Stats {
	s := Stats{}
	if len(xs) == 0 {
		return s
	}
	for _, x := range xs {
		s.Mean += x
		if x > s.Max {
			s.Max = x
		}
		if x > above {
			s.CountAbove++
		}
	}
	s.Mean /= float64(len(xs))
	s.Std = stddev(xs)
	return s
}
