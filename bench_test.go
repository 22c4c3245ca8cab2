// Benchmarks mirroring the paper's tables and figures: one bench target
// per experiment (see DESIGN.md's per-experiment index), each measuring
// the operation that experiment compares, on small fixtures so the whole
// suite runs in minutes. The full reproductions with complete sweeps are
// produced by cmd/experiments.
package subgraphmatching_test

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"subgraphmatching/internal/candspace"
	"subgraphmatching/internal/core"
	"subgraphmatching/internal/enumerate"
	"subgraphmatching/internal/filter"
	"subgraphmatching/internal/graph"
	"subgraphmatching/internal/intersect"
	"subgraphmatching/internal/order"
	"subgraphmatching/internal/querygen"
	"subgraphmatching/internal/rmat"
)

// benchFixture holds a data graph and query sets shared across benches.
type benchFixture struct {
	g        *graph.Graph
	dense16  []*graph.Graph
	sparse16 []*graph.Graph
	dense8   []*graph.Graph
}

var (
	fixtureOnce sync.Once
	fixture     benchFixture
)

// benchGraph is an RMAT graph sized so every bench iteration is
// milliseconds: 8K vertices, average degree 12, 12 labels.
func getFixture(b *testing.B) *benchFixture {
	b.Helper()
	fixtureOnce.Do(func() {
		g, err := rmat.Generate(rmat.Config{NumVertices: 8000, NumEdges: 48000, NumLabels: 12, Seed: 77})
		if err != nil {
			panic(err)
		}
		fixture.g = g
		gen := func(size int, d querygen.Density, seed int64) []*graph.Graph {
			qs, err := querygen.Generate(g, querygen.Config{
				NumVertices: size, Count: 5, Density: d, Seed: seed,
			})
			if err != nil {
				panic(err)
			}
			return qs
		}
		fixture.dense16 = gen(16, querygen.Dense, 1)
		fixture.sparse16 = gen(16, querygen.Sparse, 2)
		fixture.dense8 = gen(8, querygen.Dense, 3)
	})
	return &fixture
}

var benchLimits = core.Limits{MaxEmbeddings: 100_000, TimeLimit: 5 * time.Second}

// runSet executes every fixture query under cfg once per b.N iteration.
func runSet(b *testing.B, set []*graph.Graph, g *graph.Graph, cfg core.Config) {
	b.Helper()
	var emb uint64
	for i := 0; i < b.N; i++ {
		for _, q := range set {
			res, err := core.Match(q, g, cfg, benchLimits)
			if err != nil {
				b.Fatal(err)
			}
			emb += res.Embeddings
		}
	}
	b.ReportMetric(float64(emb)/float64(b.N), "embeddings/op")
}

// --- Figure 7: preprocessing time of filtering methods ---------------

func BenchmarkFig7Filtering(b *testing.B) {
	f := getFixture(b)
	for _, m := range []filter.Method{filter.GQL, filter.CFL, filter.CECI, filter.DPIso} {
		b.Run(m.String(), func(b *testing.B) {
			q := f.dense16[0]
			for i := 0; i < b.N; i++ {
				cand, err := filter.Run(m, q, f.g)
				if err != nil {
					b.Fatal(err)
				}
				if m != filter.GQL && !filter.AnyEmpty(cand) {
					candspace.BuildFull(q, f.g, cand)
				}
			}
		})
	}
}

// --- Figure 8: pruning power (candidates/op reported) ----------------

func BenchmarkFig8Candidates(b *testing.B) {
	f := getFixture(b)
	for _, m := range []filter.Method{filter.LDF, filter.GQL, filter.CFL, filter.CECI, filter.DPIso, filter.Steady} {
		b.Run(m.String(), func(b *testing.B) {
			q := f.dense16[0]
			mean := 0.0
			for i := 0; i < b.N; i++ {
				cand, err := filter.Run(m, q, f.g)
				if err != nil {
					b.Fatal(err)
				}
				mean = filter.MeanCandidates(cand)
			}
			b.ReportMetric(mean, "candidates/vertex")
		})
	}
}

// --- Figure 9: set-intersection local candidates ---------------------

func BenchmarkFig9EnumOptimization(b *testing.B) {
	f := getFixture(b)
	cases := []struct {
		name string
		cfg  core.Config
	}{
		{"QSI-direct", core.Config{Filter: filter.LDF, Order: order.QSI, Local: enumerate.Direct}},
		{"QSI-intersect", core.Config{Filter: filter.LDF, Order: order.QSI, Local: enumerate.Intersect}},
		{"GQL-scan", core.Config{Filter: filter.GQL, Order: order.GQL, Local: enumerate.Scan}},
		{"GQL-intersect", core.Config{Filter: filter.GQL, Order: order.GQL, Local: enumerate.Intersect}},
		{"CFL-treeedge", core.Config{Filter: filter.CFL, Order: order.CFL, Local: enumerate.TreeEdge}},
		{"CFL-intersect", core.Config{Filter: filter.CFL, Order: order.CFL, Local: enumerate.Intersect}},
		{"2PP-direct", core.Config{Filter: filter.LDF, Order: order.VF2PP, Local: enumerate.Direct, VF2PPRules: true}},
		{"2PP-intersect", core.Config{Filter: filter.LDF, Order: order.VF2PP, Local: enumerate.Intersect}},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) { runSet(b, f.dense16, f.g, c.cfg) })
	}
}

// --- Figure 10: intersection kernels ----------------------------------

func BenchmarkFig10Intersection(b *testing.B) {
	f := getFixture(b)
	for _, c := range []struct {
		name   string
		kernel intersect.Policy
	}{
		// Hybrid is the default policy, the paper's merge/galloping
		// switch; QFilter pins the block kernel.
		{"Hybrid", intersect.PolicyAdaptive},
		{"QFilter", intersect.PolicyBlock},
	} {
		cfg := core.Config{Filter: filter.GQL, Order: order.GQL, Local: enumerate.Intersect, Kernel: c.kernel}
		b.Run(c.name, func(b *testing.B) { runSet(b, f.dense16, f.g, cfg) })
	}
}

// --- Figure 11: ordering methods --------------------------------------

func BenchmarkFig11Ordering(b *testing.B) {
	f := getFixture(b)
	for _, om := range order.Methods() {
		cfg := core.OrderingStudyConfig(om, false)
		b.Run(om.String(), func(b *testing.B) { runSet(b, f.dense16, f.g, cfg) })
	}
}

// --- Table 5 / Figure 15: failing sets --------------------------------

func BenchmarkTable5Unsolved(b *testing.B) {
	f := getFixture(b)
	for _, fs := range []struct {
		name string
		on   bool
	}{{"wo-fs", false}, {"w-fs", true}} {
		cfg := core.OrderingStudyConfig(order.GQL, fs.on)
		b.Run(fs.name, func(b *testing.B) { runSet(b, f.dense16, f.g, cfg) })
	}
}

func BenchmarkFig15FailingSets(b *testing.B) {
	f := getFixture(b)
	for _, size := range []struct {
		name string
		set  []*graph.Graph
	}{{"Q8D", f.dense8}, {"Q16D", f.dense16}} {
		for _, fs := range []struct {
			name string
			on   bool
		}{{"wo-fs", false}, {"w-fs", true}} {
			cfg := core.OrderingStudyConfig(order.DPIso, fs.on)
			b.Run(size.name+"/"+fs.name, func(b *testing.B) { runSet(b, size.set, f.g, cfg) })
		}
	}
}

// --- Figure 14 / Table 6: spectrum analysis ---------------------------

func BenchmarkFig14Spectrum(b *testing.B) {
	f := getFixture(b)
	q := f.dense16[0]
	cand, err := filter.Run(filter.GQL, q, f.g)
	if err != nil {
		b.Fatal(err)
	}
	phiGQL, err := order.Compute(order.GQL, q, f.g, cand)
	if err != nil {
		b.Fatal(err)
	}
	phiRI, err := order.Compute(order.RI, q, f.g, cand)
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name string
		phi  []graph.Vertex
	}{{"GQL-order", phiGQL}, {"RI-order", phiRI}} {
		cfg := core.OrderingStudyConfig(order.GQL, false)
		cfg.FixedOrder = c.phi
		b.Run(c.name, func(b *testing.B) { runSet(b, []*graph.Graph{q}, f.g, cfg) })
	}
}

// --- Figure 16: overall performance -----------------------------------

func BenchmarkFig16Overall(b *testing.B) {
	f := getFixture(b)
	cases := []struct {
		name string
		cfg  func(q *graph.Graph) core.Config
	}{
		{"GQLfs", func(*graph.Graph) core.Config { return core.OrderingStudyConfig(order.GQL, true) }},
		{"RIfs", func(*graph.Graph) core.Config { return core.OrderingStudyConfig(order.RI, true) }},
		{"O-CECI", func(q *graph.Graph) core.Config { return core.PresetConfig(core.CECI, q, fixture.g) }},
		{"O-DP", func(q *graph.Graph) core.Config { return core.PresetConfig(core.DPIso, q, fixture.g) }},
		{"O-RI", func(q *graph.Graph) core.Config { return core.PresetConfig(core.RI, q, fixture.g) }},
		{"O-2PP", func(q *graph.Graph) core.Config { return core.PresetConfig(core.VF2PP, q, fixture.g) }},
		{"GLW", func(*graph.Graph) core.Config { return core.Config{UseGlasgow: true} }},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, q := range f.dense8 {
					if _, err := core.Match(q, f.g, c.cfg(q), benchLimits); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// --- Figures 17-18: scalability ---------------------------------------

func BenchmarkFig17Scalability(b *testing.B) {
	for _, d := range []int{8, 16} {
		g, err := rmat.Generate(rmat.Config{NumVertices: 8000, NumEdges: 4000 * d, NumLabels: 16, Seed: 500 + int64(d)})
		if err != nil {
			b.Fatal(err)
		}
		qs, err := querygen.Generate(g, querygen.Config{NumVertices: 16, Count: 3, Density: querygen.Dense, Seed: 1})
		if err != nil {
			b.Skip("no dense queries at this density")
		}
		cfg := core.OrderingStudyConfig(order.GQL, true)
		b.Run("d="+string(rune('0'+d/8))+"x8", func(b *testing.B) { runSet(b, qs, g, cfg) })
	}
}

func BenchmarkFig18Friendster(b *testing.B) {
	for _, labels := range []int{16, 64} {
		g, err := rmat.Generate(rmat.Config{NumVertices: 10000, NumEdges: 120000, NumLabels: labels, Seed: 1800})
		if err != nil {
			b.Fatal(err)
		}
		qs, err := querygen.Generate(g, querygen.Config{NumVertices: 16, Count: 3, Density: querygen.Dense, Seed: 1})
		if err != nil {
			b.Skip("no dense queries")
		}
		cfg := core.OrderingStudyConfig(order.GQL, true)
		name := "labels=16"
		if labels == 64 {
			name = "labels=64"
		}
		b.Run(name, func(b *testing.B) { runSet(b, qs, g, cfg) })
	}
}

// --- Parallel scaling: work stealing vs static stride on skew ---------

// skewFixture is a power-law R-MAT graph with a dominant label
// (LabelSkew, WordNet-style): the rare root label keeps the root
// candidate list short while the hub structure makes a few root
// subtrees orders of magnitude heavier than the rest — exactly the
// regime where a static stride overloads one worker.
type skewFixture struct {
	g *graph.Graph
	q *graph.Graph
}

var (
	skewOnce sync.Once
	skew     skewFixture
)

func getSkewFixture(b *testing.B) *skewFixture {
	b.Helper()
	skewOnce.Do(func() {
		g, err := rmat.Generate(rmat.Config{NumVertices: 4000, NumEdges: 32000, NumLabels: 6, Seed: 31, LabelSkew: 0.85})
		if err != nil {
			panic(err)
		}
		qs, err := querygen.Generate(g, querygen.Config{NumVertices: 6, Count: 8, Density: querygen.Dense, Seed: 11})
		if err != nil {
			panic(err)
		}
		// Query 2 of this set has 86 root candidates with heavily skewed
		// subtree costs; see EXPERIMENTS.md "Parallel scaling".
		skew = skewFixture{g: g, q: qs[2]}
	})
	return &skew
}

// workerNodes extracts the per-worker search-node counts of a parallel
// run, the input of reportMakespan.
func workerNodes(res *core.Result) []uint64 {
	nodes := make([]uint64, len(res.Workers))
	for w, ws := range res.Workers {
		nodes[w] = ws.Nodes
	}
	return nodes
}

// stridedNodes is the baseline BenchmarkParallelSkew compares the
// runner against: worker w explores root candidates w, w+P, w+2P, ...
// with no rebalancing (the static partition the paper mentions for
// CECI's multi-threaded execution), one goroutine per worker. It lives
// here, not in core: nothing but this benchmark runs it. Returns the
// embedding count and each worker's search nodes.
func stridedNodes(b *testing.B, plan *core.Plan, workers int) (uint64, []uint64) {
	roots := plan.Cand[plan.Order[0]]
	engines := make([]*enumerate.Engine, workers)
	for w := range engines {
		var err error
		engines[w], err = enumerate.NewEngine(plan.Query, plan.Data, plan.Cand, plan.Space, plan.Order,
			enumerate.Options{Local: plan.Cfg.Local})
		if err != nil {
			b.Fatal(err)
		}
	}
	nodes := make([]uint64, workers)
	var wg sync.WaitGroup
	for w := range engines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < len(roots); i += workers {
				before := engines[w].Stats().Nodes
				engines[w].RunPrefix(roots[i : i+1])
				nodes[w] += engines[w].Stats().Nodes - before
			}
		}()
	}
	wg.Wait()
	var emb uint64
	for _, eng := range engines {
		emb += eng.Stats().Embeddings
	}
	return emb, nodes
}

// BenchmarkParallelSkew measures the two claims of the parallel runner
// on the skewed workload:
//
//   - steal-N balances the skewed subtrees across workers where
//     strided-N (stridedNodes above) overloads one of them. Wall-clock
//     only shows this given as many CPUs as workers; to keep the
//     measurement meaningful on constrained runners too, each parallel
//     sub-benchmark also reports proj-speedup =
//     Σ nodes / max worker nodes — the makespan bound the task partition
//     admits on unconstrained cores — from Result.Workers[w].Nodes.
//   - enum-reused drops the allocations of enum-fresh to 0 because the
//     engine's scratch state is seeded once and reused per run.
//
// Run with -benchmem to see allocs/op.
func BenchmarkParallelSkew(b *testing.B) {
	f := getSkewFixture(b)
	cfg := core.Config{Filter: filter.GQL, Order: order.GQL, Local: enumerate.Intersect}
	for _, c := range []struct {
		name    string
		workers int
		strided bool
	}{
		{"seq", 1, false},
		{"strided-4", 4, true},
		{"steal-4", 4, false},
		{"strided-8", 8, true},
		{"steal-8", 8, false},
	} {
		b.Run(c.name, func(b *testing.B) {
			var emb uint64
			var nodes []uint64
			for i := 0; i < b.N; i++ {
				if c.strided {
					plan, err := core.Preprocess(f.q, f.g, cfg, 1)
					if err != nil {
						b.Fatal(err)
					}
					emb, nodes = stridedNodes(b, plan, c.workers)
					continue
				}
				res, err := core.Match(f.q, f.g, cfg, core.Limits{Parallel: c.workers})
				if err != nil {
					b.Fatal(err)
				}
				emb, nodes = res.Embeddings, workerNodes(res)
			}
			b.ReportMetric(float64(emb), "embeddings")
			reportMakespan(b, nodes)
		})
	}

	// Allocation comparison for repeated enumeration of one prepared
	// query: a fresh engine per iteration versus one reusable engine
	// seeded once.
	cand, err := filter.Run(filter.GQL, f.q, f.g)
	if err != nil {
		b.Fatal(err)
	}
	space := candspace.BuildFull(f.q, f.g, cand)
	phi, err := order.Compute(order.GQL, f.q, f.g, cand)
	if err != nil {
		b.Fatal(err)
	}
	opts := enumerate.Options{Local: enumerate.Intersect}
	b.Run("enum-fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			eng, err := enumerate.NewEngine(f.q, f.g, cand, space, phi, opts)
			if err != nil {
				b.Fatal(err)
			}
			eng.Run()
		}
	})
	b.Run("enum-reused", func(b *testing.B) {
		b.ReportAllocs()
		eng, err := enumerate.NewEngine(f.q, f.g, cand, space, phi, opts)
		if err != nil {
			b.Fatal(err)
		}
		eng.Run() // warm the buffers outside the timed loop
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			eng.Run()
		}
	})
}

// BenchmarkSplitSkew measures donation on the skew fixture at 1/2/4/8
// workers. The headline metric is proj-speedup = Σ nodes / max worker
// nodes (the makespan bound the task partition admits on unconstrained
// cores); donated reports the tasks running searches handed to idle
// workers. `make bench-sched` runs this grid; see EXPERIMENTS.md
// "Donation".
func BenchmarkSplitSkew(b *testing.B) {
	f := getSkewFixture(b)
	cfg := core.Config{Filter: filter.GQL, Order: order.GQL, Local: enumerate.Intersect}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("donate-%d", workers), func(b *testing.B) {
			// Uncapped, like BenchmarkParallelSkew: an embedding cap
			// stops the run as soon as one worker races ahead, which
			// is exactly the imbalance the metric must observe.
			limits := core.Limits{Parallel: workers}
			var emb uint64
			var donated int
			var nodes []uint64
			for i := 0; i < b.N; i++ {
				res, err := core.Match(f.q, f.g, cfg, limits)
				if err != nil {
					b.Fatal(err)
				}
				emb, nodes = res.Embeddings, workerNodes(res)
				if res.Split != nil {
					donated = res.Split.SplitTasks
				}
			}
			b.ReportMetric(float64(emb), "embeddings")
			b.ReportMetric(float64(donated), "donated")
			reportMakespan(b, nodes)
		})
	}
}

// BenchmarkObsOverhead measures the cost of the observability layer on
// the skew workload: the same matches with span tracing off (the
// default) and on. Instrumentation is batched per phase and per worker
// — engines count in locals and publish once at exit — so the delta
// stays within noise (EXPERIMENTS.md documents the measured numbers).
func BenchmarkObsOverhead(b *testing.B) {
	f := getSkewFixture(b)
	cfg := core.Config{Filter: filter.GQL, Order: order.GQL, Local: enumerate.Intersect}
	for _, c := range []struct {
		name  string
		limit core.Limits
	}{
		{"seq/trace-off", core.Limits{}},
		{"seq/trace-on", core.Limits{Trace: true}},
		{"steal-8/trace-off", core.Limits{Parallel: 8}},
		{"steal-8/trace-on", core.Limits{Parallel: 8, Trace: true}},
	} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := core.Match(f.q, f.g, cfg, c.limit)
				if err != nil {
					b.Fatal(err)
				}
				if c.limit.Trace && res.Trace == nil {
					b.Fatal("trace requested but absent")
				}
			}
		})
	}
}

// BenchmarkProfileOverhead measures the cost of EXPLAIN/ANALYZE
// profiling on the skew workload: the same matches with Limits.Profile
// off (the default) and on. Profiling increments per-depth counters at
// every search node, so unlike tracing its cost scales with the search
// tree — the bar is a delta within a few percent (EXPERIMENTS.md
// documents the measured numbers).
func BenchmarkProfileOverhead(b *testing.B) {
	f := getSkewFixture(b)
	cfg := core.Config{Filter: filter.GQL, Order: order.GQL, Local: enumerate.Intersect}
	for _, c := range []struct {
		name  string
		limit core.Limits
	}{
		{"seq/profile-off", core.Limits{}},
		{"seq/profile-on", core.Limits{Profile: true}},
		{"steal-8/profile-off", core.Limits{Parallel: 8}},
		{"steal-8/profile-on", core.Limits{Parallel: 8, Profile: true}},
	} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := core.Match(f.q, f.g, cfg, c.limit)
				if err != nil {
					b.Fatal(err)
				}
				if c.limit.Profile && res.Explain == nil {
					b.Fatal("profile requested but absent")
				}
			}
		})
	}
}

// --- Historical baselines: Ullmann vs VF2 vs VF2++ ---------------------

// BenchmarkBaselineLineage reproduces the lineage claim of the paper's
// introduction: VF2++ significantly outperforms VF2, which in turn
// improves on Ullmann's per-node refinement.
func BenchmarkBaselineLineage(b *testing.B) {
	f := getFixture(b)
	for _, c := range []struct {
		name string
		algo core.Algorithm
	}{
		{"Ullmann", core.Ullmann},
		{"VF2", core.VF2Classic},
		{"VF2PP", core.VF2PP},
	} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, q := range f.dense8 {
					if _, err := core.Match(q, f.g, core.PresetConfig(c.algo, q, f.g), benchLimits); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// --- Ablations (DESIGN.md Section 5) -----------------------------------

// BenchmarkAblationGallopThreshold isolates the intersection kernels on
// skewed sorted sets, the trade-off behind the Hybrid kernel's
// threshold.
func BenchmarkAblationGallopThreshold(b *testing.B) {
	small := make([]uint32, 64)
	for i := range small {
		small[i] = uint32(i * 997)
	}
	large := make([]uint32, 64*64)
	for i := range large {
		large[i] = uint32(i * 17)
	}
	dst := make([]uint32, 0, 64)
	b.Run("merge", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			dst = intersect.Merge(dst[:0], small, large)
		}
	})
	b.Run("galloping", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			dst = intersect.Galloping(dst[:0], small, large)
		}
	})
	b.Run("hybrid", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			dst = intersect.Hybrid(dst[:0], small, large)
		}
	})
}

// BenchmarkAblationCandSpace compares building the tree-edge vs the
// full-edge auxiliary structure (the space/time trade between CFL and
// CECI/DP-iso).
func BenchmarkAblationCandSpace(b *testing.B) {
	f := getFixture(b)
	q := f.dense16[0]
	cand, err := filter.Run(filter.CFL, q, f.g)
	if err != nil {
		b.Fatal(err)
	}
	tree := graph.NewBFSTree(q, filter.Root(filter.CFL, q, f.g))
	b.Run("tree", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			candspace.Build(q, f.g, cand, tree.Parent, nil)
		}
	})
	b.Run("full", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			candspace.BuildFull(q, f.g, cand)
		}
	})
}

// BenchmarkAblationNLF measures the neighbor-label-frequency check's
// cost against plain LDF.
func BenchmarkAblationNLF(b *testing.B) {
	f := getFixture(b)
	q := f.dense16[0]
	b.Run("LDF", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			filter.RunLDF(q, f.g)
		}
	})
	b.Run("NLF", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := filter.Run(filter.NLF, q, f.g); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationGQLRounds sweeps GraphQL's global-refinement
// iteration count.
func BenchmarkAblationGQLRounds(b *testing.B) {
	f := getFixture(b)
	q := f.dense16[0]
	for _, rounds := range []int{1, 2, 4} {
		name := []string{"", "k=1", "k=2", "", "k=4"}[rounds]
		b.Run(name, func(b *testing.B) {
			mean := 0.0
			for i := 0; i < b.N; i++ {
				cand, err := filter.RunOpts(filter.GQL, q, f.g, filter.Options{GQLRounds: rounds})
				if err != nil {
					b.Fatal(err)
				}
				mean = filter.MeanCandidates(cand)
			}
			b.ReportMetric(mean, "candidates/vertex")
		})
	}
}

// BenchmarkPreprocess* measure the preprocessing pipeline on the skewed
// R-MAT fixture, one benchmark per phase (ns/op, allocs/op); see
// EXPERIMENTS.md "Preprocessing phases".

// reportMakespan reports proj-speedup = Σ(worker work)/max(worker work)
// — the makespan bound a parallel run's partition admits on
// unconstrained cores — when it exceeds 1.
func reportMakespan(b *testing.B, work []uint64) {
	b.Helper()
	var total, most uint64
	for _, w := range work {
		total += w
		most = max(most, w)
	}
	if most > 0 && total > most {
		b.ReportMetric(float64(total)/float64(most), "proj-speedup")
	}
}

func benchPreprocessFilter(b *testing.B, m filter.Method) {
	f := getSkewFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := filter.Run(m, f.q, f.g); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPreprocessGraphQL(b *testing.B) { benchPreprocessFilter(b, filter.GQL) }
func BenchmarkPreprocessCFL(b *testing.B)     { benchPreprocessFilter(b, filter.CFL) }
func BenchmarkPreprocessCECI(b *testing.B)    { benchPreprocessFilter(b, filter.CECI) }
func BenchmarkPreprocessDPIso(b *testing.B)   { benchPreprocessFilter(b, filter.DPIso) }

func BenchmarkPreprocessBuildFull(b *testing.B) {
	f := getSkewFixture(b)
	cand, err := filter.Run(filter.GQL, f.q, f.g)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		candspace.BuildFull(f.q, f.g, cand)
	}
}

func BenchmarkPreprocessBlocks(b *testing.B) {
	f := getSkewFixture(b)
	cand, err := filter.Run(filter.GQL, f.q, f.g)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s := candspace.BuildFull(f.q, f.g, cand)
		b.StartTimer()
		s.MaterializeBlocks()
	}
}

func BenchmarkPreprocessOrder(b *testing.B) {
	f := getSkewFixture(b)
	cand, err := filter.Run(filter.GQL, f.q, f.g)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := order.Compute(order.DPIso, f.q, f.g, cand); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Adaptive intersection kernels ------------------------------------

// kernelBenchSet builds a sorted set of n values with the given block
// density: stride 1 packs 64 elements per block (dense), stride 97 puts
// one element per block (sparse). start staggers the two operands so
// the intersection is nonempty but not total.
func kernelBenchSet(n, stride, start int) []uint32 {
	out := make([]uint32, n)
	for i := range out {
		out[i] = uint32(start + i*stride)
	}
	return out
}

// BenchmarkIntersectKernels is the kernel-selection design space: size
// ratio (balanced vs 1:64 skew) × block density (dense vs sparse) ×
// kernel (merge, gallop, hybrid, block, and the selector's adaptive
// default, which is hybrid behind the dispatch); EXPERIMENTS.md records
// the measured grid.
func BenchmarkIntersectKernels(b *testing.B) {
	shapes := []struct {
		name string
		a, c []uint32
	}{
		{"dense-balanced", kernelBenchSet(4096, 1, 0), kernelBenchSet(4096, 1, 2048)},
		{"dense-skewed", kernelBenchSet(1024, 1, 32768), kernelBenchSet(65536, 1, 0)},
		{"sparse-balanced", kernelBenchSet(4096, 97, 0), kernelBenchSet(4096, 97, 97*2048)},
		{"sparse-skewed", kernelBenchSet(1024, 97, 97*32768), kernelBenchSet(65536, 97, 0)},
	}
	for _, sh := range shapes {
		ba, bc := int32(intersect.CountBlocks(sh.a)), int32(intersect.CountBlocks(sh.c))
		fl := intersect.NewFlatBlocks([]int32{0, ba, ba + bc})
		fl.EncodeSet(0, sh.a)
		fl.EncodeSet(1, sh.c)
		av, cv := fl.View(0), fl.View(1)
		dst := make([]uint32, 0, len(sh.a))
		size := len(intersect.Merge(dst[:0], sh.a, sh.c))
		kernels := []struct {
			name string
			fn   func() int
		}{
			{"merge", func() int { dst = intersect.Merge(dst[:0], sh.a, sh.c); return len(dst) }},
			{"gallop", func() int { dst = intersect.Galloping(dst[:0], sh.a, sh.c); return len(dst) }},
			{"hybrid", func() int { dst = intersect.Hybrid(dst[:0], sh.a, sh.c); return len(dst) }},
			{"block", func() int { dst = intersect.IntersectViews(dst[:0], av, cv); return len(dst) }},
		}
		var sel intersect.Selector
		kernels = append(kernels, struct {
			name string
			fn   func() int
		}{"adaptive", func() int { dst = sel.Pair(dst[:0], sh.a, sh.c, av, cv); return len(dst) }})
		for _, k := range kernels {
			b.Run(sh.name+"/"+k.name, func(b *testing.B) {
				got := 0
				for i := 0; i < b.N; i++ {
					got = k.fn()
				}
				if got != size {
					b.Fatalf("%s/%s: %d results, want %d", sh.name, k.name, got, size)
				}
				b.ReportMetric(float64(size), "results/op")
			})
		}
	}
}

// BenchmarkEnumerateKernelPolicy runs the full optimized pipeline on the
// R-MAT fixture under each kernel policy — the end-to-end cost the
// adaptive default must not regress (EXPERIMENTS.md "Adaptive kernels").
func BenchmarkEnumerateKernelPolicy(b *testing.B) {
	f := getFixture(b)
	for _, p := range []intersect.Policy{
		intersect.PolicyMerge, intersect.PolicyGallop, intersect.PolicyBlock,
		intersect.PolicyAdaptive,
	} {
		cfg := core.Config{Filter: filter.GQL, Order: order.GQL, Local: enumerate.Intersect, Kernel: p}
		b.Run(p.String()+"/dense", func(b *testing.B) { runSet(b, f.dense16, f.g, cfg) })
		b.Run(p.String()+"/sparse", func(b *testing.B) { runSet(b, f.sparse16, f.g, cfg) })
	}
}

// BenchmarkCandSpaceBlockLayout measures materializing the flat
// CSR-of-blocks arena over a candidate space (allocations and layout
// bytes; run with -benchmem). The boxed
// per-set layout it replaced was last measured at commit 20164a0
// (EXPERIMENTS.md "Adaptive kernels").
func BenchmarkCandSpaceBlockLayout(b *testing.B) {
	f := getFixture(b)
	q := f.dense16[0]
	cand, err := filter.Run(filter.GQL, q, f.g)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("flat", func(b *testing.B) {
		b.ReportAllocs()
		var bytes int64
		for i := 0; i < b.N; i++ {
			s := candspace.BuildFull(q, f.g, cand)
			s.MaterializeBlocks()
			bytes = s.BlockMemoryBytes()
		}
		b.ReportMetric(float64(bytes), "layout-bytes")
	})
}

// BenchmarkPreprocessColdMix is the in-process twin of the repository
// benchmark's serve-cold workload: the same R-MAT shape (20 000 v /
// 200 000 e / 20 labels), a mix of 4–20-vertex dense and sparse
// queries, the Optimized preset, one core.Preprocess per iteration with
// the queries cycled — so ns/op, B/op and allocs/op (-benchmem) read
// per plan (EXPERIMENTS.md "Preprocessing phases"). The extra metrics
// split the plan's time by stage: the filter's own StageTrace
// (GraphQL's local pruning and refinement rounds), the candidate-space
// build (CSR + blocks) and the order. A plan allocates ≈ 40 KB in ≈ 117
// objects: from ≈ 64 KB and ≈ 268 before the candidate space kept only
// the direction the order reads, in one slab (EXPERIMENTS.md
// "One-direction 𝒜"), and ≈ 135 KB and ≈ 410 before the filter's and
// the build's |V(G)|-sized scratch moved to the data graph's free lists
// ("Cold plan scratch"). What remains is the plan itself — its
// candidate slab, the space's slabs, spans and order.
func BenchmarkPreprocessColdMix(b *testing.B) { preprocessColdMix(b, 20) }

// BenchmarkPreprocessColdMixManyLabels is BenchmarkPreprocessColdMix
// on the same R-MAT shape with 100 labels: neighbour labels reach past
// 63, so the data graph's NLF index is not exact and every label lookup
// (Run, CoveredBy) binary-searches the stored labels instead of ranking
// a signature bit.
func BenchmarkPreprocessColdMixManyLabels(b *testing.B) { preprocessColdMix(b, 100) }

func preprocessColdMix(b *testing.B, labels int) {
	g, err := rmat.Generate(rmat.Config{NumVertices: 20000, NumEdges: 200000, NumLabels: labels, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	var queries []*graph.Graph
	for _, size := range []int{4, 8, 12, 16, 20} {
		for _, d := range []querygen.Density{querygen.Dense, querygen.Sparse} {
			qs, err := querygen.Generate(g, querygen.Config{NumVertices: size, Count: 8, Density: d, Seed: int64(size)*2 + int64(d)})
			if err != nil {
				b.Fatal(err)
			}
			queries = append(queries, qs...)
		}
	}
	g.NLF() // resident per graph, not per plan
	stage := map[string]time.Duration{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := queries[i%len(queries)]
		plan, err := core.Preprocess(q, g, core.PresetConfig(core.Optimized, q, g), 1)
		if err != nil {
			b.Fatal(err)
		}
		for _, st := range plan.Stages {
			stage[st.Name] += st.Duration
		}
		stage["build"] += plan.BuildTime
		stage["order"] += plan.OrderTime
	}
	for name, d := range stage {
		b.ReportMetric(float64(d.Microseconds())/float64(b.N), name+"-us/plan")
	}
}

// BenchmarkNLFIndex measures building the neighbour-label-frequency
// index of the repository benchmark's data graph (g20: R-MAT, 20 000 v /
// 200 000 e / 20 labels) — signatures, the label runs of N(v) and one
// run end per (vertex, label) — one fresh graph over the same CSR per
// iteration. The first filter run against every registered graph pays
// it, and so does the benchmark's setup_s. Reports build-ms and the
// index's resident bytes (index-MB, what GraphInfo.IndexBytes says):
// 4.35 MiB when each entry held a label, a count and an int64 run
// position, 2.41 MiB with the run end alone.
func BenchmarkNLFIndex(b *testing.B) { nlfIndex(b, 20) }

// BenchmarkNLFIndexManyLabels is BenchmarkNLFIndex on the same R-MAT
// shape with 100 labels: more than one 64-bit word of label ranks, so
// the build sorts the distinct ranks of each N(v), and the index is not
// exact and stores each entry's label.
func BenchmarkNLFIndexManyLabels(b *testing.B) { nlfIndex(b, 100) }

func nlfIndex(b *testing.B, labels int) {
	g, err := rmat.Generate(rmat.Config{NumVertices: 20000, NumEdges: 200000, NumLabels: labels, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	offsets, adj, vertexLabels := g.CSR()
	keys, counts := g.LabelPairCounts()
	var bytes int64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		fresh, err := graph.FromCSR(offsets, adj, vertexLabels, keys, counts)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		bytes = fresh.NLF().Bytes()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/1e6, "build-ms")
	b.ReportMetric(float64(bytes)/(1<<20), "index-MB")
}

// BenchmarkParseDataGraph measures graph.Parse over the text of the
// repository benchmark's data graph (g20, as BenchmarkNLFIndex), the
// body every registration by text uploads: the tokenizer, the numeric
// fields and Builder.Build. Reports parse-ms and the input rate (MB/s).
func BenchmarkParseDataGraph(b *testing.B) {
	g, err := rmat.Generate(rmat.Config{NumVertices: 20000, NumEdges: 200000, NumLabels: 20, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	var text bytes.Buffer
	if err := graph.Write(&text, g); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(text.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := graph.Parse(bytes.NewReader(text.Bytes())); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/1e6, "parse-ms")
}

// harnessCorpus is the input of the repository benchmark, regenerated
// in-process by cmd/smatchbench's rules (corpus.go): the g20 graph, the
// 48 fingerprint-deduplicated sparse queries whose Optimized run reaches
// 250 000 embeddings (per size, the first 16 of 32), which enum-heavy
// and stream-embeddings send, and serve-warm's 64 distinct queries,
// cycling through the six classes (sizes 8/12/16, dense and sparse).
type harnessCorpus struct {
	g     *graph.Graph
	heavy []*graph.Graph
	warm  []*graph.Graph
}

const heavyLimit, heavyPerSize = 250000, 16

var (
	harnessOnce sync.Once
	harness     harnessCorpus
	harnessErr  error
)

func getHarnessCorpus(b *testing.B) *harnessCorpus {
	b.Helper()
	harnessOnce.Do(func() { harness, harnessErr = buildHarnessCorpus() })
	if harnessErr != nil {
		b.Fatal(harnessErr)
	}
	return &harness
}

func buildHarnessCorpus() (harnessCorpus, error) {
	const seed = 1
	g, err := rmat.Generate(rmat.Config{NumVertices: 20000, NumEdges: 200000, NumLabels: 20, Seed: seed})
	if err != nil {
		return harnessCorpus{}, err
	}
	class := func(size int, d querygen.Density, n int) ([]*graph.Graph, error) {
		return querygen.Generate(g, querygen.Config{NumVertices: size, Count: n, Density: d,
			Seed: seed*1000 + int64(size)*2 + int64(d)})
	}
	seen := map[graph.Fingerprint]bool{}
	fresh := func(q *graph.Graph) bool {
		fp := graph.FingerprintOf(q)
		if seen[fp] {
			return false
		}
		seen[fp] = true
		return true
	}
	c := harnessCorpus{g: g}
	// serve-warm's list: per class 19 queries, taken one per class in
	// turn, the first 64 distinct (cmd/smatchbench's mixedQueries).
	const warmQueries = 64
	per := (warmQueries+5)/6 + 8
	var classes [][]*graph.Graph
	for _, size := range []int{8, 12, 16} {
		for _, d := range []querygen.Density{querygen.Dense, querygen.Sparse} {
			qs, err := class(size, d, per)
			if err != nil {
				return c, err
			}
			classes = append(classes, qs)
		}
	}
	for i := 0; i < per && len(c.warm) < warmQueries; i++ {
		for _, qs := range classes {
			if fresh(qs[i]) && len(c.warm) < warmQueries {
				c.warm = append(c.warm, qs[i])
			}
		}
	}
	seen = map[graph.Fingerprint]bool{}
	for _, size := range []int{8, 12, 16} {
		qs, err := class(size, querygen.Sparse, 2*heavyPerSize)
		if err != nil {
			return c, err
		}
		kept := 0
		for _, q := range qs {
			if !fresh(q) || kept == heavyPerSize {
				continue
			}
			res, err := core.Match(q, g, core.PresetConfig(core.Optimized, q, g), core.Limits{MaxEmbeddings: heavyLimit})
			if err != nil {
				return c, err
			}
			if res.LimitHit {
				c.heavy = append(c.heavy, q)
				kept++
			}
		}
	}
	return c, nil
}

// BenchmarkEnumerateHeavyMix is the in-process twin of the repository
// benchmark's enum-heavy workload, one class at a time: the harness's
// 16 sparse queries per size (harnessCorpus), each planned once under
// the Optimized preset; one iteration is one sequential core.MatchPlan
// capped at 250 000 embeddings, the plans cycled. ns/node is what a
// search node costs in the recursion the class runs — the 8-vertex
// class searches without failing sets, the larger two with them — which
// BenchmarkEngineLeafLevel (14 of 15 nodes are leaves) cannot see.
// EXPERIMENTS.md "One enumeration path" reads it at -benchtime 2s
// -count 3.
//
// The sequential legs count the Optimized preset's independent tail
// (Config.CountTail), so their nodes are the interior ones. Each class
// also runs at 2 workers ("-parallel2"), the harness's parallel=C on
// the 2-CPU box: capped parallel counts reserve the cap one embedding
// at a time and keep the enumerating loop (ROADMAP items 2 and 3a), so
// this leg reads slower than the sequential one — core.par_speedup < 1,
// pinned in process (item 4e).
func BenchmarkEnumerateHeavyMix(b *testing.B) { heavyMix(b, core.Optimized, 1, 2) }

// BenchmarkEnumerateDPIsoMix is BenchmarkEnumerateHeavyMix's queries
// planned under the DP-iso preset instead: the same search loop, with
// DP-iso's adaptive NextVertex and failing sets in every class.
// EXPERIMENTS.md "One search loop" reads it.
func BenchmarkEnumerateDPIsoMix(b *testing.B) { heavyMix(b, core.DPIso, 1) }

// heavyMix runs the harness's heavy queries, each class planned under
// preset a, one capped core.MatchPlan per iteration at each of the
// worker counts, and reports ns/node and nodes/op.
func heavyMix(b *testing.B, a core.Algorithm, workers ...int) {
	c := getHarnessCorpus(b)
	for i, size := range []int{8, 12, 16} {
		var plans []*core.Plan
		for _, q := range c.heavy[i*heavyPerSize : (i+1)*heavyPerSize] {
			plan, err := core.Preprocess(q, c.g, core.PresetConfig(a, q, c.g), 1)
			if err != nil {
				b.Fatal(err)
			}
			plans = append(plans, plan)
		}
		for _, w := range workers {
			name := fmt.Sprintf("%d-sparse", size)
			if w > 1 {
				name += fmt.Sprintf("-parallel%d", w)
			}
			b.Run(name, func(b *testing.B) {
				var nodes uint64
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					res, err := core.MatchPlan(plans[i%len(plans)], core.Limits{MaxEmbeddings: heavyLimit, Parallel: w})
					if err != nil {
						b.Fatal(err)
					}
					nodes += res.Nodes
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(nodes), "ns/node")
				b.ReportMetric(float64(nodes)/float64(b.N), "nodes/op")
			})
		}
	}
}

// BenchmarkEnumerateWarmMix is the in-process twin of serve-warm's
// search: its 64 queries (harnessCorpus.warm), each planned under the
// Optimized preset and then raced as the service races a plan on its
// first hit (core.RaceOrders at the request's limit); one iteration is
// one sequential count over the next plan, capped at serve-warm's 1 000
// embeddings. It reports ns/req and nodes/req. The "built" leg runs
// the plans as Preprocess built them, without the race.
func BenchmarkEnumerateWarmMix(b *testing.B) {
	const warmLimit = 1000
	c := getHarnessCorpus(b)
	built := make([]*core.Plan, len(c.warm))
	raced := make([]*core.Plan, len(c.warm))
	for i, q := range c.warm {
		for _, plans := range [][]*core.Plan{built, raced} {
			plan, err := core.Preprocess(q, c.g, core.PresetConfig(core.Optimized, q, c.g), 1)
			if err != nil {
				b.Fatal(err)
			}
			plans[i] = plan
		}
		if won := core.RaceOrders(raced[i], warmLimit); won != nil {
			raced[i] = won
		}
	}
	for _, leg := range []struct {
		name  string
		plans []*core.Plan
	}{{"raced", raced}, {"built", built}} {
		b.Run(leg.name, func(b *testing.B) {
			var nodes uint64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := core.MatchPlan(leg.plans[i%len(leg.plans)], core.Limits{MaxEmbeddings: warmLimit})
				if err != nil {
					b.Fatal(err)
				}
				nodes += res.Nodes
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/req")
			b.ReportMetric(float64(nodes)/float64(b.N), "nodes/req")
		})
	}
}
