package main

import (
	"go/ast"
	"go/parser"
	"go/token"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// flagSurface is every flag main.go registers, in registration order. A
// flag is an operator knob every deployment may set and every change
// must keep working, so the next one must show up here as a reviewed
// line with the deployment that needs it; the coalescing batcher's
// window and size left because no caller but a test set them, and the
// switch that undid -data-dir because leaving -data-dir out does the
// same.
//
//   - addr: where to listen.
//   - max-inflight, max-queue, max-queue-wait, max-graph-share: admission
//     control, which keeps one heavy search from starving the rest.
//   - plan-cache, plan-cache-bytes: the plan cache's entry and byte
//     budgets, sized to the host's memory.
//   - timeout: the default per-query time limit, the paper's five
//     minutes.
//   - pprof, slowlog, slow-threshold, slowlog-max-bytes: diagnostics an
//     operator turns on; pprof exposes runtime internals and stays off.
//   - data-dir, mmap, verify-snapshots: the durable store, its restart
//     mode and its startup integrity check.
//   - graph: data graphs preloaded at startup.
var flagSurface = []string{
	"addr", "max-inflight", "max-queue", "max-queue-wait", "plan-cache",
	"plan-cache-bytes", "max-graph-share", "timeout", "pprof", "slowlog",
	"slow-threshold", "slowlog-max-bytes", "data-dir", "mmap",
	"verify-snapshots", "graph",
}

// TestFlagSurface finds the flags by walking main.go's flag.* calls:
// the name is the first argument of flag.Int and its kin, the second of
// flag.Var and the *Var forms.
func TestFlagSurface(t *testing.T) {
	file, err := parser.ParseFile(token.NewFileSet(), "main.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	ast.Inspect(file, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if pkg, ok := sel.X.(*ast.Ident); !ok || pkg.Name != "flag" || len(call.Args) == 0 {
			return true
		}
		arg := call.Args[0]
		if strings.HasSuffix(sel.Sel.Name, "Var") {
			arg = call.Args[1]
		}
		lit, ok := arg.(*ast.BasicLit)
		if !ok || lit.Kind != token.STRING {
			t.Fatalf("flag.%s registers a flag whose name is not a literal", sel.Sel.Name)
		}
		name, err := strconv.Unquote(lit.Value)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, name)
		return true
	})
	if !slices.Equal(got, flagSurface) {
		t.Errorf("smatchd flags\n  %v\nthe reviewed set is\n  %v", got, flagSurface)
	}
}
