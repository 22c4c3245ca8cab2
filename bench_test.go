// Benchmarks mirroring the paper's tables and figures: one bench target
// per experiment (see DESIGN.md's per-experiment index), each measuring
// the operation that experiment compares, on small fixtures so the whole
// suite runs in minutes. The full reproductions with complete sweeps are
// produced by cmd/experiments.
package subgraphmatching_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"subgraphmatching/internal/candspace"
	"subgraphmatching/internal/compress"
	"subgraphmatching/internal/core"
	"subgraphmatching/internal/enumerate"
	"subgraphmatching/internal/filter"
	"subgraphmatching/internal/graph"
	"subgraphmatching/internal/intersect"
	"subgraphmatching/internal/order"
	"subgraphmatching/internal/par"
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
		{"QSI-intersect", core.Config{Filter: filter.LDF, Order: order.QSI, Local: enumerate.Intersect, Kernel: intersect.PolicyHybrid}},
		{"GQL-scan", core.Config{Filter: filter.GQL, Order: order.GQL, Local: enumerate.Scan}},
		{"GQL-intersect", core.Config{Filter: filter.GQL, Order: order.GQL, Local: enumerate.Intersect, Kernel: intersect.PolicyHybrid}},
		{"CFL-treeedge", core.Config{Filter: filter.CFL, Order: order.CFL, Local: enumerate.TreeEdge, TreeSpace: true}},
		{"CFL-intersect", core.Config{Filter: filter.CFL, Order: order.CFL, Local: enumerate.Intersect, Kernel: intersect.PolicyHybrid}},
		{"2PP-direct", core.Config{Filter: filter.LDF, Order: order.VF2PP, Local: enumerate.Direct, VF2PPRules: true}},
		{"2PP-intersect", core.Config{Filter: filter.LDF, Order: order.VF2PP, Local: enumerate.Intersect, Kernel: intersect.PolicyHybrid}},
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
		local  enumerate.LocalCandidates
		kernel intersect.Policy
	}{
		// The Hybrid arm pins its kernel so the figure keeps comparing
		// the paper's two methods even now that adaptive is the default.
		{"Hybrid", enumerate.Intersect, intersect.PolicyHybrid},
		{"QFilter", enumerate.IntersectBlock, intersect.PolicyAdaptive},
	} {
		cfg := core.Config{Filter: filter.GQL, Order: order.GQL, Local: c.local, Kernel: c.kernel}
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
		// Query 2 of this set has 86 root candidates (under the depth-1
		// split threshold at 4+ workers) with heavily skewed subtree
		// costs; see EXPERIMENTS.md "Parallel scaling".
		skew = skewFixture{g: g, q: qs[2]}
	})
	return &skew
}

// workerNodes extracts the per-worker search-node counts of a parallel
// run, the input of par.MakespanBound.
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
// CECI's multi-threaded execution; par.Run is that partition). It lives
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
	nodes := par.Run(workers, len(roots), func(w, i int) uint64 {
		before := engines[w].Stats().Nodes
		engines[w].RunPrefix(roots[i : i+1])
		return engines[w].Stats().Nodes - before
	})
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
					plan, err := core.Preprocess(f.q, f.g, cfg, c.workers)
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
	// query: a fresh enumerate.Run per iteration versus one reusable
	// engine seeded once.
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
			if _, err := enumerate.Run(f.q, f.g, cand, space, phi, opts); err != nil {
				b.Fatal(err)
			}
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

// BenchmarkSplitSkew measures the cost-model splitter on the skew
// fixture at 1/4/8 workers. The headline metric is proj-speedup =
// Σ nodes / max worker nodes (the makespan bound the task partition
// admits on unconstrained cores); probe-nodes reports the splitter's own
// expansion overhead so the balance gain can be weighed against what the
// probes cost. `make bench-sched` runs this grid; see EXPERIMENTS.md
// "Cost-model splitting" (its static-* rows are the expand-everything
// baseline, last reproducible at commit 3ad1bc6).
func BenchmarkSplitSkew(b *testing.B) {
	f := getSkewFixture(b)
	cfg := core.Config{Filter: filter.GQL, Order: order.GQL, Local: enumerate.Intersect}
	for _, workers := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("cost-%d", workers), func(b *testing.B) {
			// Uncapped, like BenchmarkParallelSkew: an embedding cap
			// stops the run as soon as one worker races ahead, which
			// is exactly the imbalance the metric must observe.
			limits := core.Limits{Parallel: workers}
			var emb, probes uint64
			var nodes []uint64
			for i := 0; i < b.N; i++ {
				res, err := core.Match(f.q, f.g, cfg, limits)
				if err != nil {
					b.Fatal(err)
				}
				emb, nodes = res.Embeddings, workerNodes(res)
				if res.Split != nil {
					probes = res.Split.Probes
				}
			}
			b.ReportMetric(float64(emb), "embeddings")
			b.ReportMetric(float64(probes), "probe-nodes")
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
	tree := graph.NewBFSTree(q, filter.Root(filter.CFL, q, f.g, 1))
	b.Run("tree", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			candspace.Build(q, f.g, cand, tree.Parent, 1)
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
				cand, _, err := filter.RunOpts(filter.GQL, q, f.g, filter.Options{GQLRounds: rounds})
				if err != nil {
					b.Fatal(err)
				}
				mean = filter.MeanCandidates(cand)
			}
			b.ReportMetric(mean, "candidates/vertex")
		})
	}
}

// BenchmarkAblationCompression compares direct enumeration against the
// BoostIso-style compressed count on a twin-rich graph (a hub-and-spoke
// "blown-up" structure where compression shines) — the Section 3.4
// trade-off.
func BenchmarkAblationCompression(b *testing.B) {
	// 40 hubs in a cycle, each with 20 interchangeable leaves.
	bld := graph.NewBuilder(40*21, 40*21)
	for h := 0; h < 40; h++ {
		bld.AddVertex(1)
	}
	for h := 0; h < 40; h++ {
		bld.AddEdge(graph.Vertex(h), graph.Vertex((h+1)%40))
		for l := 0; l < 20; l++ {
			leaf := bld.AddVertex(0)
			bld.AddEdge(graph.Vertex(h), leaf)
		}
	}
	g := bld.MustBuild()
	// Pattern: hub with 3 leaves plus a hub neighbor.
	q := graph.MustFromEdges([]graph.Label{1, 0, 0, 0, 1},
		[][2]graph.Vertex{{0, 1}, {0, 2}, {0, 3}, {0, 4}})
	b.Run("direct", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := core.Match(q, g, core.PresetConfig(core.Optimized, q, g), core.Limits{})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(res.Embeddings), "embeddings")
		}
	})
	b.Run("compressed", func(b *testing.B) {
		c, err := compress.Build(g)
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < b.N; i++ {
			res, err := compress.Count(q, c, compress.CountOptions{})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(res.Embeddings), "embeddings")
		}
	})
}

// BenchmarkPreprocess measures the preprocessing pipeline on the skewed
// R-MAT fixture, one sub-benchmark per phase × worker count. The
// workers-1 rows are the cost of the one code path run inline (ns/op,
// allocs/op). On CPU-constrained runners wall-clock understates the
// parallelism, so each multi-worker run also reports
// proj-speedup = Σ(worker work)/max(worker work) — the makespan bound
// the task partition admits on unconstrained cores, from the per-worker
// work-unit tallies (candidates examined for the filters, candidates
// scanned + adjacency targets emitted for the CSR build, elements
// scanned for the block layout). This is the same metric the
// enumeration benchmarks derive from Result.Workers[w].Nodes; see
// EXPERIMENTS.md "Parallel preprocessing".

var preprocessWorkers = []int{1, 4, 8}

func reportMakespan(b *testing.B, work []uint64) {
	b.Helper()
	if bound := par.MakespanBound(work); bound > 1 {
		b.ReportMetric(bound, "proj-speedup")
	}
}

func benchPreprocessFilter(b *testing.B, m filter.Method) {
	f := getSkewFixture(b)
	for _, workers := range preprocessWorkers {
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			var work []uint64
			for i := 0; i < b.N; i++ {
				var err error
				_, work, err = filter.RunOpts(m, f.q, f.g, filter.Options{Workers: workers})
				if err != nil {
					b.Fatal(err)
				}
			}
			reportMakespan(b, work)
		})
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
	for _, workers := range preprocessWorkers {
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			var work []uint64
			for i := 0; i < b.N; i++ {
				_, work = candspace.Build(f.q, f.g, cand, nil, workers)
			}
			reportMakespan(b, work)
		})
	}
}

func BenchmarkPreprocessBlocks(b *testing.B) {
	f := getSkewFixture(b)
	cand, err := filter.Run(filter.GQL, f.q, f.g)
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range preprocessWorkers {
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			var work []uint64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				s := candspace.BuildFull(f.q, f.g, cand)
				b.StartTimer()
				work = s.MaterializeBlocks(workers)
			}
			reportMakespan(b, work)
		})
	}
}

func BenchmarkPreprocessOrder(b *testing.B) {
	f := getSkewFixture(b)
	cand, err := filter.Run(filter.GQL, f.q, f.g)
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range preprocessWorkers {
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := order.Compute(order.DPIso, f.q, f.g, cand, workers); err != nil {
					b.Fatal(err)
				}
			}
		})
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
// kernel (merge, gallop, hybrid, block, adaptive). The adaptive row
// should track the best static kernel in every cell; EXPERIMENTS.md
// records the measured grid.
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
		counts := []int32{int32(intersect.CountBlocks(sh.a)), int32(intersect.CountBlocks(sh.c))}
		fl := intersect.NewFlatBlocks(counts)
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
		intersect.PolicyHybrid, intersect.PolicyMerge, intersect.PolicyGallop,
		intersect.PolicyBlock, intersect.PolicyAdaptive,
	} {
		cfg := core.Config{Filter: filter.GQL, Order: order.GQL, Local: enumerate.Intersect, Kernel: p}
		b.Run(p.String()+"/dense", func(b *testing.B) { runSet(b, f.dense16, f.g, cfg) })
		b.Run(p.String()+"/sparse", func(b *testing.B) { runSet(b, f.sparse16, f.g, cfg) })
	}
}

// BenchmarkCandSpaceBlockLayout compares materializing the block layout
// as boxed per-candidate BlockSets against the flat CSR-of-blocks arena
// (allocations and layout bytes; run with -benchmem). The space build
// itself is identical in both arms.
func BenchmarkCandSpaceBlockLayout(b *testing.B) {
	f := getFixture(b)
	q := f.dense16[0]
	cand, err := filter.Run(filter.GQL, q, f.g)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("boxed", func(b *testing.B) {
		b.ReportAllocs()
		var bytes int64
		for i := 0; i < b.N; i++ {
			s := candspace.BuildFull(q, f.g, cand)
			bytes = 0
			for u := 0; u < q.NumVertices(); u++ {
				uu := graph.Vertex(u)
				for _, up := range q.Neighbors(uu) {
					if !s.HasPair(uu, up) {
						continue
					}
					for ci := range s.Candidates(uu) {
						bs := intersect.NewBlockSet(s.Adjacency(uu, up, ci))
						// keys + words + struct and slice headers per set.
						bytes += int64(bs.NumBlocks()*12) + 64
					}
				}
			}
		}
		b.ReportMetric(float64(bytes), "layout-bytes")
	})
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
	b.Run("flat-parallel-4", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s := candspace.BuildFull(q, f.g, cand)
			s.MaterializeBlocks(4)
		}
	})
}

// BenchmarkPreprocessColdMix is the in-process twin of the repository
// benchmark's serve-cold workload: the same R-MAT shape (20 000 v /
// 200 000 e / 20 labels), a mix of 4–20-vertex dense and sparse
// queries, the Optimized preset, one worker, one core.Preprocess per
// iteration with the queries cycled — so ns/op, B/op and allocs/op
// (-benchmem) read per plan. The extra metrics split the plan's time by
// stage: the filter's own StageTrace (GraphQL's local pruning and
// refinement rounds), the candidate-space build (CSR + blocks) and the
// order.
func BenchmarkPreprocessColdMix(b *testing.B) {
	g, err := rmat.Generate(rmat.Config{NumVertices: 20000, NumEdges: 200000, NumLabels: 20, Seed: 1})
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

// BenchmarkEnumerateHeavyMix is the in-process twin of the repository
// benchmark's enum-heavy workload, one class at a time: the same R-MAT
// graph, and per query size the harness's 16 sparse queries (same
// seeds, same rule: the first 16 of 32 whose capped run reaches 250 000
// embeddings), each planned once under the Optimized preset; one
// iteration is one sequential core.MatchPlan, the plans cycled. ns/node
// is what a search node costs in the recursion the class runs — the
// 8-vertex class searches without failing sets, the larger two with
// them — which BenchmarkEngineLeafLevel (14 of 15 nodes are leaves)
// cannot see. EXPERIMENTS.md "One enumeration path" reads it at
// -benchtime 2s -count 3.
func BenchmarkEnumerateHeavyMix(b *testing.B) {
	const limit, perSize = 250000, 16
	g, err := rmat.Generate(rmat.Config{NumVertices: 20000, NumEdges: 200000, NumLabels: 20, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	for _, size := range []int{8, 12, 16} {
		qs, err := querygen.Generate(g, querygen.Config{NumVertices: size, Count: 2 * perSize,
			Density: querygen.Sparse, Seed: 1000 + int64(size)*2 + int64(querygen.Sparse)})
		if err != nil {
			b.Fatal(err)
		}
		var plans []*core.Plan
		seen := map[graph.Fingerprint]bool{}
		for _, q := range qs {
			fp := graph.FingerprintOf(q)
			if seen[fp] || len(plans) == perSize {
				continue
			}
			seen[fp] = true
			plan, err := core.Preprocess(q, g, core.PresetConfig(core.Optimized, q, g), 1)
			if err != nil {
				b.Fatal(err)
			}
			if res, err := core.MatchPlan(plan, core.Limits{MaxEmbeddings: limit}); err != nil {
				b.Fatal(err)
			} else if res.LimitHit {
				plans = append(plans, plan)
			}
		}
		b.Run(fmt.Sprintf("%d-sparse", size), func(b *testing.B) {
			var nodes uint64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := core.MatchPlan(plans[i%len(plans)], core.Limits{MaxEmbeddings: limit})
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
