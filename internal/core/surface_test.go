package core

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"slices"
	"strings"
	"testing"
)

// layerSurface is every exported function and method of the three
// preprocessing layers, of enumeration, of this package and of the
// serving layer. Each layer has one entry point per job, and the trace
// and the method parameters are arguments of that entry point — a new
// RunXParallelStatsTraced must show up here as a reviewed
// line; so must a second way to pin a task (RunPrefix takes a prefix of
// any length, under static and adaptive orders alike),
// a scheduler or split policy to parse (there is one parallel runner),
// and a fourth way to run a request (Submit, SubmitBatch and Explain are
// one spine; Stream forwards to Submit).
// cmd/smatchbench pins the call forms filter.Run(m,q,g),
// filter.RunLDF(q,g), candspace.BuildFull(q,g,cand),
// (*Space).MaterializeBlocks() and order.Compute(m,q,g,cand): those stay
// thin forwards. Of this package it pins core.Config{UseGlasgow: true}
// and core.Config{UseVF2: true} run through core.Match, the core.Plan{…}
// literal, and core.Preprocess(q, g, cfg, 1) — which is why the
// external-engine switches are still Config fields, and why Preprocess
// keeps an int it ignores (plans build on the caller's goroutine).
// RaceOrders is the serving layer's one way to change a cached plan's
// order: it returns a new plan, and the plan cache swaps it in.
var layerSurface = map[string][]string{
	".": {
		"Algorithm.String", "Algorithms", "Config.Check", "Config.Engine", "Config.External",
		"EnumerateSpan", "ExplainPlan", "Match",
		"MatchFresh", "MatchPlan", "NeighborhoodEquivalenceClasses", "OrbitMultiplier",
		"OrderingStudyConfig", "ParseAlgorithm", "Plan.PreprocessTime", "Plan.SizeBytes",
		"Preprocess", "PresetConfig", "Profile.Render", "RaceOrders", "Result.PreprocessTime",
		"Result.Solved", "Result.TotalTime", "RunContext", "Validate",
	},
	"../filter": {
		"AnyEmpty", "MeanCandidates", "Method.String", "Methods", "ParseMethod",
		"Root", "Run", "RunLDF", "RunLabelOnly", "RunOpts", "TotalCandidates",
	},
	"../candspace": {
		"Build", "BuildFull", "EstimateSpanningTreeEmbeddings",
		"Pair.Adjacency", "Pair.View", "Space.Adjacency",
		"Space.AllCandidates", "Space.BlockMemoryBytes", "Space.BlockStats",
		"Space.Candidates", "Space.HasBlocks",
		"Space.HasPair", "Space.MaterializeBlocks", "Space.MeanCandidates",
		"Space.MemoryBytes", "Space.Pair", "Space.Query",
		"Space.TotalCandidates",
	},
	"../order": {
		"BuildDPWeights", "Compute", "ComputeCECI", "ComputeCFL", "ComputeDPIso",
		"ComputeGQL", "ComputeQSI", "ComputeRI", "ComputeVF2PP", "Method.String",
		"Methods", "ParseMethod", "Random", "Validate",
	},
	"../enumerate": {
		"CheckOptions", "Engine.Rearm", "Engine.Release", "Engine.Run", "Engine.RunPrefix",
		"Engine.SetDeadline", "Engine.Stats", "LocalCandidates.String",
		"NewEngine", "NewSearchProfile", "SearchProfile.BranchingSummary",
		"SearchProfile.MaxDepth", "SearchProfile.Merge", "SearchProfile.Render",
		"SearchProfile.TotalNodes", "Stats.Solved",
	},
	"../service": {
		"New", "Response.Trace", "Service.Close", "Service.Explain",
		"Service.Flights", "Service.Graphs", "Service.Metrics",
		"Service.RegisterGraph", "Service.RestoreGraph", "Service.SetGenerationFloor",
		"Service.Stats", "Service.Stream", "Service.Submit", "Service.SubmitBatch",
		"Service.UnregisterGraph",
	},
}

// knobSurface is every field of the structs a caller configures a run
// with: core.Config, core.Limits, the public package's Options,
// filter.Options and service.Request. A field here is a settable value every test grid and
// benchmark has to cover, so the next one must show up as a reviewed
// line with the two callers that need different values of it —
// Schedule, Split and the split factor left because nothing outside a
// benchmark ever set them; the tree-space and DP-weights flags because
// Local and Adaptive imply them; the auto-order flag and the
// filter-tuning counts because nothing outside a test set them (the
// ablations tune filter.Options); Workers, in the public Options and in
// filter.Options, because a plan builds on one goroutine: a
// preprocessing fan-out paid at no size the service sees (EXPERIMENTS.md
// "Preprocessing phases").
//
// core.Config is the paper's tuple plus the external-engine switches,
// which cmd/smatchbench/corpus.go constructs; they leave with ROADMAP
// item 5's Matcher. CountTail is the one component the paper's tuple
// lacks: the Optimized preset sets it and the paper presets, which
// reproduce the study's node counts, leave it off.
//
// OnRun and OnMatch are one knob, the sink, in two forms (setting both is
// ErrTwoSinks). OnRun is the contract; its caller is smatchd's run sink
// (ndjsonStream.runSink, through service.Request.OnRun). OnMatch is the
// per-embedding adapter over it, and its callers are the harness
// (cmd/smatchbench/trace.go constructs core.Limits{OnMatch} and
// service.Request{OnMatch}) and the public API (Options.OnMatch,
// ForEachMatch, FindAll). OnMatch leaves core.Limits and service.Request
// when Benchmark v2 (ROADMAP item 1) stops constructing it; the public
// adapter then moves to match.go.
//
// service.Config and store.Options are the operator's knobs. smatchd
// sets each field from one flag (the flags are pinned by cmd/smatchd's
// TestFlagSurface), except store.Options.Logf, which it points at
// stderr, and CompactEvery, which only the store tests set, to force and
// to suppress WAL compaction. The coalescing batcher's window and size
// left because no caller but a test set them.
var knobSurface = map[[2]string][]string{
	{".", "Config"}: {
		"Filter", "Order", "FixedOrder", "Local", "Kernel", "FailingSets", "Adaptive",
		"VF2PPRules", "Homomorphism", "SymmetryBreaking", "CountTail", "UseGlasgow", "UseVF2",
		"UseUllmann", "GlasgowMemoryBudget",
	},
	{".", "Limits"}: {
		"MaxEmbeddings", "TimeLimit", "Cancel", "OnRun", "OnMatch", "Parallel",
		"Trace", "Profile",
	},
	{"../..", "Options"}: {
		"Algorithm", "Custom", "MaxEmbeddings", "TimeLimit", "OnMatch",
		"Parallel", "Trace", "Explain",
	},
	{"../filter", "Options"}: {"Trace", "GQLRounds", "GQLRadius", "DPIsoPasses"},
	{"../service", "Request"}: {
		"Graph", "Query", "Algorithm", "Custom", "MaxEmbeddings", "TimeLimit",
		"Parallel", "OnRun", "OnMatch", "NoCache", "Profile",
	},
	{"../service", "Config"}: {
		"MaxInFlight", "MaxQueue", "MaxQueueWait", "PlanCacheSize", "PlanCacheBytes",
		"MaxGraphShare", "DefaultTimeLimit", "SlowQueryLog", "SlowQueryThreshold",
	},
	{"../store", "Options"}: {"Dir", "MMap", "VerifyFingerprint", "CompactEvery", "Logf"},
}

// parseNonTest parses the non-test files of the package in dir.
func parseNonTest(t *testing.T, dir string) []*ast.File {
	t.Helper()
	pkgs, err := parser.ParseDir(token.NewFileSet(), dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatalf("%s: %v", dir, err)
	}
	var files []*ast.File
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			files = append(files, file)
		}
	}
	return files
}

func TestKnobSurface(t *testing.T) {
	for key, want := range knobSurface {
		var got []string
		for _, file := range parseNonTest(t, key[0]) {
			ast.Inspect(file, func(n ast.Node) bool {
				ts, ok := n.(*ast.TypeSpec)
				if !ok || ts.Name.Name != key[1] {
					return true
				}
				if st, ok := ts.Type.(*ast.StructType); ok {
					for _, f := range st.Fields.List {
						for _, name := range f.Names {
							got = append(got, name.Name)
						}
					}
				}
				return false
			})
		}
		if !slices.Equal(got, want) {
			t.Errorf("%s.%s fields\n  %v\nthe reviewed set is\n  %v", key[0], key[1], got, want)
		}
	}
}

func TestLayerSurface(t *testing.T) {
	for dir, want := range layerSurface {
		var got []string
		for _, file := range parseNonTest(t, dir) {
			for _, decl := range file.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || !fn.Name.IsExported() {
					continue
				}
				name := fn.Name.Name
				if fn.Recv != nil {
					recv := fn.Recv.List[0].Type
					if star, ok := recv.(*ast.StarExpr); ok {
						recv = star.X
					}
					id, ok := recv.(*ast.Ident)
					if !ok || !id.IsExported() {
						continue
					}
					name = id.Name + "." + name
				}
				got = append(got, name)
			}
		}
		slices.Sort(got)
		if !slices.Equal(got, want) {
			t.Errorf("%s exports\n  %v\nthe reviewed surface is\n  %v", dir, got, want)
		}
	}
}
