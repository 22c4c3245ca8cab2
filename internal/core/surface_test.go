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
// serving layer. Each layer has one entry point per job, and the worker
// count, the trace and the method parameters are arguments of that entry
// point — a new RunXParallelStatsTraced must show up here as a reviewed
// line; so must a second way to pin a task (RunPrefix and ExpandPrefix
// take a prefix of any length, under static and adaptive orders alike),
// a scheduler or split policy to parse (there is one parallel runner),
// and a fourth way to run a request (Submit, SubmitBatch and Explain are
// one spine; Stream and the Batcher forward to the first two).
// cmd/smatchbench pins the call forms filter.Run(m,q,g),
// filter.RunLDF(q,g), candspace.BuildFull(q,g,cand),
// (*Space).MaterializeBlocks() and order.Compute(m,q,g,cand): those stay
// thin forwards (or take their extras as a trailing variadic). Of this
// package it pins core.Config{UseGlasgow: true} and core.Config{UseVF2:
// true} run through core.Match, the core.Plan{…} literal, and
// core.Preprocess(q, g, cfg, 1) — which is why the external-engine
// switches are still Config fields.
var layerSurface = map[string][]string{
	".": {
		"Algorithm.String", "Algorithms", "Config.External", "ExplainPlan", "Match",
		"MatchFresh", "MatchPlan", "NeighborhoodEquivalenceClasses", "OrbitMultiplier",
		"OrderingStudyConfig", "ParseAlgorithm", "Plan.PreprocessTime", "Plan.SizeBytes",
		"Preprocess", "PresetConfig", "Profile.Render", "Result.PreprocessTime",
		"Result.Solved", "Result.TotalTime", "Validate",
	},
	"../filter": {
		"AnyEmpty", "MeanCandidates", "Method.String", "Methods", "ParseMethod",
		"Root", "Run", "RunLDF", "RunLabelOnly", "RunOpts", "TotalCandidates",
	},
	"../candspace": {
		"Build", "BuildFull", "EstimateSpanningTreeEmbeddings",
		"Space.Adjacency", "Space.AdjacencyView", "Space.AdjacencyWithView",
		"Space.AllCandidates", "Space.BlockMemoryBytes", "Space.BlockStats",
		"Space.CandidateIndex", "Space.Candidates", "Space.HasBlocks",
		"Space.HasPair", "Space.MaterializeBlocks", "Space.MeanCandidates",
		"Space.MemoryBytes", "Space.PairSize", "Space.Query", "Space.TotalCandidates",
	},
	"../order": {
		"Best", "BuildDPWeights", "Compute", "ComputeCECI", "ComputeCFL",
		"ComputeDPIso", "ComputeGQL", "ComputeQSI", "ComputeRI", "ComputeVF2PP",
		"EstimateCost", "Method.String", "Methods", "ParseMethod", "Random", "Validate",
	},
	"../enumerate": {
		"Engine.ExpandPrefix", "Engine.ResetStats", "Engine.Run", "Engine.RunPrefix",
		"Engine.SetDeadline", "Engine.Stats", "Engine.Stopped", "LocalCandidates.String",
		"NewEngine", "NewSearchProfile", "Run", "SearchProfile.BranchingSummary",
		"SearchProfile.MaxDepth", "SearchProfile.Merge", "SearchProfile.Render",
		"SearchProfile.TotalNodes", "Stats.Solved",
	},
	"../service": {
		"Batcher.Close", "Batcher.Submit", "New", "Service.Close", "Service.Explain",
		"Service.Flights", "Service.Graphs", "Service.Metrics", "Service.NewBatcher",
		"Service.RegisterGraph", "Service.RestoreGraph", "Service.SetGenerationFloor",
		"Service.Stats", "Service.Stream", "Service.Submit", "Service.SubmitBatch",
		"Service.UnregisterGraph",
	},
}

// knobSurface is every field of the two structs a caller configures a
// run with: core.Limits and the public package's Options. A field here
// is a settable value every test grid and benchmark has to cover, so the
// next one must show up as a reviewed line with the two callers that
// need different values of it — Schedule, Split and the split factor left
// because nothing outside a benchmark ever set them.
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
var knobSurface = map[[2]string][]string{
	{".", "Limits"}: {
		"MaxEmbeddings", "TimeLimit", "Cancel", "OnRun", "OnMatch", "Parallel",
		"Workers", "Trace", "Profile",
	},
	{"../..", "Options"}: {
		"Algorithm", "Custom", "MaxEmbeddings", "TimeLimit", "OnMatch",
		"Parallel", "Workers", "Trace", "Explain",
	},
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
