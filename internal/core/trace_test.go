package core

import (
	"math/rand"
	"strings"
	"testing"
	"time"

	"subgraphmatching/internal/filter"
	"subgraphmatching/internal/obs"
	"subgraphmatching/internal/testutil"
)

// wellNested asserts the trace invariant the smatch -trace output relies
// on: at every node, the children's durations sum to no more than the
// node's own duration.
func wellNested(t *testing.T, label string, s *obs.Span) {
	t.Helper()
	if sum := s.ChildrenDuration(); sum > s.Duration {
		t.Errorf("%s: span %q children sum %v > own duration %v", label, s.Name, sum, s.Duration)
	}
	for _, c := range s.Children {
		wellNested(t, label, c)
	}
}

// TestMatchTraceAllPresets runs every preset with tracing on and checks
// the span tree's shape: a "match" root whose phase children nest within
// the request wall time (the acceptance criterion for -trace).
func TestMatchTraceAllPresets(t *testing.T) {
	q, g := testutil.PaperQuery(), testutil.PaperData()
	for _, a := range Algorithms() {
		cfg := PresetConfig(a, q, g)
		res, err := Match(q, g, cfg, Limits{Trace: true})
		if err != nil {
			t.Fatalf("%v: %v", a, err)
		}
		root := res.Trace
		if root == nil {
			t.Fatalf("%v: Trace nil with Limits.Trace on", a)
		}
		if root.Name != "match" {
			t.Errorf("%v: root span %q, want match", a, root.Name)
		}
		wellNested(t, a.String(), root)
		if root.Child("enumerate") == nil {
			t.Errorf("%v: no enumerate child", a)
		}
		external := cfg.UseGlasgow || cfg.UseVF2 || cfg.UseUllmann
		if pre := root.Child("preprocess"); !external {
			if pre == nil {
				t.Fatalf("%v: no preprocess child", a)
			}
			for _, phase := range []string{"filter", "build", "order"} {
				if pre.Child(phase) == nil {
					t.Errorf("%v: preprocess missing %q child", a, phase)
				}
			}
			f := pre.Child("filter")
			if f != nil && f.Attr("method") == nil {
				t.Errorf("%v: filter span has no method attr", a)
			}
		} else if pre != nil {
			t.Errorf("%v: external engine grew a preprocess span", a)
		}
	}
}

// TestMatchTraceOff confirms tracing is opt-in.
func TestMatchTraceOff(t *testing.T) {
	q, g := testutil.PaperQuery(), testutil.PaperData()
	res, err := Match(q, g, PresetConfig(Optimized, q, g), Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace != nil {
		t.Error("Trace set without Limits.Trace")
	}
}

// TestMatchTraceFilterStages checks that a one-worker run surfaces the
// filter's internal stages as children of the filter span.
func TestMatchTraceFilterStages(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := testutil.RandomGraph(rng, 100, 400, 3)
	q := testutil.RandomConnectedQuery(rng, g, 5)
	res, err := Match(q, g, PresetConfig(GraphQL, q, g), Limits{Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	f := res.Trace.Child("preprocess").Child("filter")
	if f == nil {
		t.Fatal("no filter span")
	}
	if len(f.Children) < 2 {
		t.Fatalf("filter span has %d stage children, want >= 2 (local + refine)", len(f.Children))
	}
	if f.Children[0].Name != "local" {
		t.Errorf("first stage %q, want local", f.Children[0].Name)
	}
	if !strings.HasPrefix(f.Children[1].Name, "refine-") {
		t.Errorf("second stage %q, want refine-*", f.Children[1].Name)
	}
}

// TestParallelPreprocessFilterTrace pins the filter span for every
// filter method: its children are Plan.Stages — EXPLAIN's raw material —
// name for name and count for count, each stage carrying one count per
// query vertex, and nothing else (the plan builds on one goroutine, so
// there are no per-worker children).
func TestParallelPreprocessFilterTrace(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := testutil.RandomGraph(rng, 100, 400, 3)
	q := testutil.RandomConnectedQuery(rng, g, 5)
	for _, m := range filter.Methods() {
		cfg := PresetConfig(GraphQL, q, g)
		cfg.Filter = m
		plan, err := Preprocess(q, g, cfg, 1)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		f := plan.Span.Child("filter")
		if f == nil {
			t.Fatalf("%v: no filter span", m)
		}
		wellNested(t, m.String(), plan.Span)
		if len(f.Children) != len(plan.Stages) || len(f.Children) == 0 {
			t.Fatalf("%v: %d filter children for %d plan stages", m, len(f.Children), len(plan.Stages))
		}
		for i, st := range plan.Stages {
			c := f.Children[i]
			if c.Name != st.Name || c.Attr("candidates") != st.Candidates || len(st.Counts) != q.NumVertices() {
				t.Errorf("%v: child %d (%s, %v), plan stage (%s, %d, %d counts)", m, i,
					c.Name, c.Attr("candidates"), st.Name, st.Candidates, len(st.Counts))
			}
		}
	}
}

// TestParallelWorkerStats checks the scheduler tallies: every task of
// the pool is accounted to exactly one worker, per-worker nodes plus the
// probe's sum to the result's, and the trace surfaces one worker child
// per worker.
func TestParallelWorkerStats(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := testutil.RandomGraph(rng, 200, 900, 2)
	q := testutil.RandomConnectedQuery(rng, g, 5)
	want := testutil.BruteForceCount(q, g, 0)

	cfg := PresetConfig(Optimized, q, g)
	res, err := Match(q, g, cfg, Limits{Trace: true, Parallel: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Embeddings != want {
		t.Fatalf("%d embeddings, want %d", res.Embeddings, want)
	}
	if len(res.Workers) == 0 {
		t.Fatal("no worker stats on a parallel run")
	}
	var tasks, nodes uint64
	for _, ws := range res.Workers {
		tasks += ws.Tasks
		nodes += ws.Nodes
	}
	// With no early stop the workers' Tasks sum to the pool size, roots
	// and donated prefixes alike, and their nodes to the run's.
	if res.Split == nil || tasks != uint64(res.Split.Tasks) {
		t.Errorf("workers executed %d tasks, pool is %+v", tasks, res.Split)
	}
	if nodes != res.Nodes {
		t.Errorf("worker nodes %d != Nodes %d", nodes, res.Nodes)
	}
	enum := res.Trace.Child("enumerate")
	if enum == nil {
		t.Fatal("no enumerate span")
	}
	if len(enum.Children) != len(res.Workers) {
		t.Errorf("%d worker spans, want %d", len(enum.Children), len(res.Workers))
	}
}

// TestWorkStealTasksConserved pins down the work-steal accounting: with
// no early stop, the workers' Tasks sum to the task-pool size — one per
// root candidate plus SplitInfo.SplitTasks donated ones — at 2 workers
// and at 8, where most start with nothing to run.
func TestWorkStealTasksConserved(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := testutil.RandomGraph(rng, 150, 700, 2)
	q := testutil.RandomConnectedQuery(rng, g, 4)
	plan, err := Preprocess(q, g, PresetConfig(Optimized, q, g), 1)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Empty {
		t.Skip("empty candidate set")
	}
	roots := len(plan.Cand[plan.Order[0]])
	for _, workers := range []int{2, 8} {
		res, err := MatchPlan(plan, Limits{Parallel: workers})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Workers) != workers {
			t.Errorf("workers=%d: %d started", workers, len(res.Workers))
		}
		var tasks uint64
		for _, ws := range res.Workers {
			tasks += ws.Tasks
		}
		if tasks != uint64(res.Split.Tasks) || res.Split.Tasks != roots+res.Split.SplitTasks {
			t.Errorf("workers=%d: tasks sum %d, pool %+v over %d roots", workers, tasks, res.Split, roots)
		}
	}
}

// TestPlanSpanAlwaysBuilt: Preprocess populates Plan.Span regardless of
// tracing flags — the serving layer's cache stores it once per plan.
func TestPlanSpanAlwaysBuilt(t *testing.T) {
	q, g := testutil.PaperQuery(), testutil.PaperData()
	plan, err := Preprocess(q, g, PresetConfig(CFL, q, g), 1)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Span == nil {
		t.Fatal("Plan.Span nil")
	}
	if plan.Span.Name != "preprocess" {
		t.Errorf("span name %q", plan.Span.Name)
	}
	if plan.Span.Duration <= 0 {
		t.Error("preprocess span has no duration")
	}
	if got := plan.Span.ChildrenDuration(); got > plan.Span.Duration {
		t.Errorf("children %v > span %v", got, plan.Span.Duration)
	}
	// The span durations must agree with the plan's recorded times.
	if f := plan.Span.Child("filter"); f == nil || absDur(f.Duration-plan.FilterTime) > time.Millisecond {
		t.Errorf("filter span disagrees with FilterTime")
	}
}

func absDur(d time.Duration) time.Duration {
	if d < 0 {
		return -d
	}
	return d
}
