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
// preprocessing layers, of enumeration and of the serving layer. Each
// layer has one entry point per job, and the worker count, the trace and
// the method parameters are arguments of that entry point — a new
// RunXParallelStatsTraced must show up here as a reviewed line; so must
// a second way to pin a task (RunPrefix and ExpandPrefix take a prefix
// of any length, under static and adaptive orders alike) and a fourth
// way to run a request (Submit, SubmitBatch and Explain are one spine;
// Stream and the Batcher forward to the first two).
// cmd/smatchbench pins the call forms filter.Run(m,q,g),
// filter.RunLDF(q,g), candspace.BuildFull(q,g,cand),
// (*Space).MaterializeBlocks() and order.Compute(m,q,g,cand): those stay
// thin forwards (or take their extras as a trailing variadic). Of this
// package it pins core.Config{UseGlasgow: true} and core.Config{UseVF2:
// true} run through core.Match, the core.Plan{…} literal, and
// core.Preprocess(q, g, cfg, 1) — which is why the external-engine
// switches are still Config fields.
var layerSurface = map[string][]string{
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

func TestLayerSurface(t *testing.T) {
	for dir, want := range layerSurface {
		pkgs, err := parser.ParseDir(token.NewFileSet(), dir, func(fi os.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, 0)
		if err != nil {
			t.Fatalf("%s: %v", dir, err)
		}
		var got []string
		for _, pkg := range pkgs {
			for _, file := range pkg.Files {
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
		}
		slices.Sort(got)
		if !slices.Equal(got, want) {
			t.Errorf("%s exports\n  %v\nthe reviewed surface is\n  %v", dir, got, want)
		}
	}
}
