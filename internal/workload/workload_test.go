package workload

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"subgraphmatching/internal/core"
	"subgraphmatching/internal/graph"
	"subgraphmatching/internal/rmat"
	"subgraphmatching/internal/testutil"
)

func TestStandardSizes(t *testing.T) {
	if got := StandardSizes(20); len(got) != 5 || got[4] != 20 {
		t.Errorf("StandardSizes(20) = %v", got)
	}
	if got := StandardSizes(32); len(got) != 5 || got[4] != 32 {
		t.Errorf("StandardSizes(32) = %v", got)
	}
}

func TestStandardQuerySets(t *testing.T) {
	g, err := rmat.Generate(rmat.Config{NumVertices: 3000, NumEdges: 25000, NumLabels: 8, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	sets := StandardQuerySets(g, 16, 5, 42)
	if len(sets) == 0 {
		t.Fatal("no query sets generated")
	}
	names := map[string]bool{}
	for _, s := range sets {
		names[s.Name] = true
		if len(s.Queries) != 5 {
			t.Errorf("%s has %d queries", s.Name, len(s.Queries))
		}
		for _, q := range s.Queries {
			if q.NumVertices() != s.Size {
				t.Errorf("%s query has %d vertices", s.Name, q.NumVertices())
			}
			if !s.Density.Matches(q.AverageDegree()) {
				t.Errorf("%s query has density %.1f", s.Name, q.AverageDegree())
			}
		}
	}
	if !names["Q4"] || !names["Q8D"] || !names["Q8S"] {
		t.Errorf("missing expected sets, got %v", names)
	}
}

func TestRunAggregates(t *testing.T) {
	q, g := testutil.PaperQuery(), testutil.PaperData()
	set := []*graph.Graph{q, q, q}
	agg := Run("test", set, g, func(q *graph.Graph) core.Config {
		return core.PresetConfig(core.Optimized, q, g)
	}, core.Limits{TimeLimit: time.Second})
	if agg.Queries != 3 || agg.Errors != 0 || agg.Unsolved != 0 {
		t.Fatalf("agg = %+v", agg)
	}
	if agg.MeanEmbeddings != 1 {
		t.Errorf("MeanEmbeddings = %v", agg.MeanEmbeddings)
	}
	if agg.Short != 3 {
		t.Errorf("Short = %d, want 3", agg.Short)
	}
	if agg.MeanTotal < agg.MeanEnum {
		t.Error("MeanTotal < MeanEnum")
	}
}

func TestRunCountsErrors(t *testing.T) {
	g := testutil.PaperData()
	disc := graph.MustFromEdges([]graph.Label{0, 0, 0}, [][2]graph.Vertex{{0, 1}})
	agg := Run("err", []*graph.Graph{disc}, g, func(q *graph.Graph) core.Config {
		return core.PresetConfig(core.RI, q, g)
	}, core.Limits{})
	if agg.Errors != 1 {
		t.Errorf("Errors = %d", agg.Errors)
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 100}, 10)
	if s.Mean != 26.5 || s.Max != 100 || s.CountAbove != 1 {
		t.Errorf("Summarize = %+v", s)
	}
	if s.Std <= 0 {
		t.Error("Std should be positive")
	}
	zero := Summarize(nil, 0)
	if zero.Mean != 0 || zero.Max != 0 {
		t.Error("empty Summarize should be zero")
	}
}

func TestTableRender(t *testing.T) {
	tab := Table{Title: "demo", Header: []string{"a", "bee"}}
	tab.AddRow("x", "1")
	tab.AddRow("longer", "2")
	var buf bytes.Buffer
	tab.Render(&buf)
	out := buf.String()
	if !strings.Contains(out, "demo") || !strings.Contains(out, "longer") {
		t.Errorf("render output:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, separator, 2 rows
		t.Errorf("got %d lines:\n%s", len(lines), out)
	}
}

func TestFormatters(t *testing.T) {
	if FmtMS(1500*time.Microsecond) != "1.50" {
		t.Errorf("FmtMS = %q", FmtMS(1500*time.Microsecond))
	}
	if FmtMS(0) != "0" {
		t.Errorf("FmtMS(0) = %q", FmtMS(0))
	}
	if FmtCount(1234567) != "1.23M" || FmtCount(1500) != "1.5K" || FmtCount(5) != "5.0" {
		t.Error("FmtCount wrong")
	}
	if FmtSpeedup(2.5) != "2.50x" || FmtSpeedup(250) != "250x" {
		t.Error("FmtSpeedup wrong")
	}
}

func TestTableRenderCSV(t *testing.T) {
	tab := Table{Title: "demo", Header: []string{"a", "b"}}
	tab.AddRow("x", "1")
	tab.AddRow("y,z", "2") // comma must be quoted
	var buf bytes.Buffer
	if err := tab.RenderCSV(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "# demo\n") {
		t.Errorf("missing title comment:\n%s", out)
	}
	if !strings.Contains(out, "\"y,z\",2") {
		t.Errorf("comma cell not quoted:\n%s", out)
	}
	if !strings.Contains(out, "a,b\n") {
		t.Errorf("missing header:\n%s", out)
	}
}

func TestRunEach(t *testing.T) {
	q, g := testutil.PaperQuery(), testutil.PaperData()
	outcomes := RunEach([]*graph.Graph{q, q}, g, func(q *graph.Graph) core.Config {
		return core.PresetConfig(core.Optimized, q, g)
	}, core.Limits{})
	if len(outcomes) != 2 {
		t.Fatalf("got %d outcomes, want 2", len(outcomes))
	}
	for i, o := range outcomes {
		if o.Err != nil || o.Result.Embeddings != 1 {
			t.Errorf("outcome %d = %+v, %v; want 1 embedding", i, o.Result, o.Err)
		}
	}
	// Error outcomes are recorded too.
	disc := graph.MustFromEdges([]graph.Label{0, 0, 0}, [][2]graph.Vertex{{0, 1}})
	outcomes = RunEach([]*graph.Graph{disc}, g, func(q *graph.Graph) core.Config {
		return core.Config{}
	}, core.Limits{})
	if len(outcomes) != 1 || outcomes[0].Err == nil ||
		!strings.Contains(outcomes[0].Err.Error(), "connected") {
		t.Errorf("disconnected query outcome = %+v", outcomes)
	}
}
