package core

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"subgraphmatching/internal/enumerate"
	"subgraphmatching/internal/filter"
	"subgraphmatching/internal/graph"
	"subgraphmatching/internal/intersect"
	"subgraphmatching/internal/order"
	"subgraphmatching/internal/testutil"
)

// engineFixture is a one-label data graph and a 4-vertex query whose
// searches are long enough to reach the engines' cancel and deadline
// polls (11 000 to 55 000 nodes across the configurations, against a
// poll every 4096) and hand over leaf runs longer than one, and whose
// symmetry orbit is above 1.
func engineFixture(t *testing.T) (q, g *graph.Graph) {
	t.Helper()
	rng := rand.New(rand.NewSource(41))
	g = testutil.RandomGraph(rng, 100, 500, 1)
	for q == nil {
		q = testutil.RandomConnectedQuery(rng, g, 4)
	}
	return q, g
}

// engineConfigs is every pipeline preset and Figure 10's QFilter arm
// (presetPlanConfigs), plus symmetry breaking and homomorphism.
func engineConfigs(q, g *graph.Graph) map[string]Config {
	cfgs := presetPlanConfigs(q, g)
	cfgs["symmetry"] = Config{Filter: filter.GQL, Order: order.GQL, Local: enumerate.Intersect,
		FailingSets: true, SymmetryBreaking: true}
	cfgs["homomorphism"] = Config{Local: enumerate.Intersect, Order: order.GQL, Homomorphism: true}
	return cfgs
}

// outcome is what a request's answer is compared on. embeddings is in
// emission order for a sequential run and sorted for a parallel one,
// whose order is the scheduler's; nodes and kernels are compared on
// sequential runs only, since a parallel run's depend on where its
// searches were split.
type outcome struct {
	embeddings []string
	count      uint64
	nodes      uint64
	limitHit   bool
	timedOut   bool
	kernels    intersect.KernelStats
	profile    []uint64
}

// runRequest runs limits on plan, collecting what the sink took. A sink
// already in limits is wrapped, so it still decides what is taken.
func runRequest(t *testing.T, plan *Plan, limits Limits) outcome {
	t.Helper()
	var out outcome
	var mu sync.Mutex
	inner := limits.OnRun
	limits.OnRun = func(m []uint32, u graph.Vertex, vs []uint32) int {
		taken := len(vs)
		if inner != nil {
			taken = inner(m, u, vs)
		}
		mu.Lock()
		defer mu.Unlock()
		for _, v := range vs[:taken] {
			m[u] = v
			out.embeddings = append(out.embeddings, string(uint32SliceBytes(m)))
		}
		return taken
	}
	res, err := MatchPlan(plan, limits)
	if err != nil {
		t.Fatal(err)
	}
	out.count, out.limitHit, out.timedOut = res.Embeddings, res.LimitHit, res.TimedOut
	if limits.Parallel > 1 {
		slices.Sort(out.embeddings)
		return out
	}
	out.nodes = res.Nodes
	out.kernels = res.Kernels
	if res.Profile != nil {
		out.profile = res.Profile.Nodes
	}
	return out
}

// idleMarks reports how many visited marks are set in the arrays the
// plan's data graph keeps for its next searches, and how many of the
// plan's idle engines still hold an array. Both are unexported state,
// read by reflection so that neither package grows a method only a test
// calls; callers read them with no run in flight.
func idleMarks(p *Plan) (set, held int) {
	p.engineMu.Lock()
	for _, e := range p.idle {
		if !reflect.ValueOf(e).Elem().FieldByName("engine").FieldByName("visited").IsNil() {
			held++
		}
	}
	p.engineMu.Unlock()
	free := reflect.ValueOf(p.Data).Elem().FieldByName("idleMarks")
	for i := 0; i < free.Len(); i++ {
		for m, j := free.Index(i), 0; j < m.Len(); j++ {
			if m.Index(j).Bool() {
				set++
			}
		}
	}
	return set, held
}

func idleCount(p *Plan) int {
	p.engineMu.Lock()
	defer p.engineMu.Unlock()
	return len(p.idle)
}

// TestReusedEnginesAnswerLikeFresh runs one scripted sequence of
// requests on one cached plan per configuration, so every request after
// the first runs on an engine an earlier request parked, and compares
// each answer with the same request on a freshly preprocessed plan,
// whose engine is new. After every run the visited marks are back with
// the data graph, all clear, and no idle engine holds any. A sink that
// panics loses its engine and its marks, and the next request is still
// right.
func TestReusedEnginesAnswerLikeFresh(t *testing.T) {
	q, g := engineFixture(t)
	for name, cfg := range engineConfigs(q, g) {
		hot, err := Preprocess(q, g, cfg, 1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if cfg.SymmetryBreaking && hot.Orbit < 2 {
			t.Fatalf("%s: orbit %d, want a query with interchangeable vertices", name, hot.Orbit)
		}
		ref := runRequest(t, hot, Limits{})
		if ref.nodes < 2*4096 {
			t.Fatalf("%s: %d nodes, too few to reach the engines' polls", name, ref.nodes)
		}
		// A cap that lands inside a leaf run: one past the start of the
		// first run longer than one.
		var capAt uint64
		var before uint64
		if _, err := MatchPlan(hot, Limits{OnRun: func(_ []uint32, _ graph.Vertex, vs []uint32) int {
			if capAt == 0 && len(vs) > 1 {
				capAt = before + 1
			}
			before += uint64(len(vs))
			return len(vs)
		}}); err != nil {
			t.Fatal(err)
		}
		if capAt == 0 {
			t.Fatalf("%s: no leaf run longer than one", name)
		}
		declineAfter := func(k int) func([]uint32, graph.Vertex, []uint32) int {
			seen := 0
			return func(_ []uint32, _ graph.Vertex, vs []uint32) int {
				taken := min(len(vs), k-seen)
				seen += taken
				return taken
			}
		}
		cancelled := func() *atomic.Bool {
			var c atomic.Bool
			c.Store(true)
			return &c
		}
		script := []struct {
			step   string
			limits func() Limits
		}{
			{"uncapped", func() Limits { return Limits{} }},
			{"capped in a leaf run", func() Limits { return Limits{MaxEmbeddings: capAt} }},
			{"expired deadline", func() Limits { return Limits{TimeLimit: 1} }},
			{"pre-set cancel", func() Limits { return Limits{Cancel: cancelled()} }},
			{"sink declines after 7", func() Limits { return Limits{OnRun: declineAfter(7)} }},
			{"profiled", func() Limits { return Limits{Profile: true} }},
			{"unprofiled", func() Limits { return Limits{} }},
			{"parallel 2", func() Limits { return Limits{Parallel: 2} }},
			{"parallel 4", func() Limits { return Limits{Parallel: 4} }},
			{"uncapped again", func() Limits { return Limits{} }},
		}
		check := func(step string, limits func() Limits) {
			t.Helper()
			fresh, err := Preprocess(q, g, cfg, 1)
			if err != nil {
				t.Fatal(err)
			}
			want := runRequest(t, fresh, limits())
			got := runRequest(t, hot, limits())
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s %s: reused engine answered %d embeddings (%d taken), %d nodes, limit %v, timeout %v, kernels %v; fresh %d (%d), %d, %v, %v, %v",
					name, step, got.count, len(got.embeddings), got.nodes, got.limitHit, got.timedOut, got.kernels,
					want.count, len(want.embeddings), want.nodes, want.limitHit, want.timedOut, want.kernels)
			}
			if set, held := idleMarks(hot); set != 0 || held != 0 {
				t.Errorf("%s %s: %d visited marks set in the data graph's free arrays, %d idle engines hold marks", name, step, set, held)
			}
			if limits().Parallel <= 1 && idleCount(hot) == 0 {
				t.Errorf("%s %s: no engine parked on the plan", name, step)
			}
		}
		for _, s := range script {
			check(s.step, s.limits)
		}

		// A sink that panics: the engine it ran on is dropped, not parked.
		for _, workers := range []int{1, 2} {
			idle := idleCount(hot)
			err := func() (err error) {
				defer func() {
					if r := recover(); r != nil {
						err = fmt.Errorf("panic: %v", r)
					}
				}()
				_, err = MatchPlan(hot, Limits{Parallel: workers, OnMatch: func([]uint32) bool { panic("sink") }})
				return err
			}()
			if err == nil {
				t.Fatalf("%s: a panicking sink at %d workers returned no error", name, workers)
			}
			if workers > 1 && !errors.Is(err, ErrInternal) {
				t.Errorf("%s: a panicking sink at %d workers returned %v, want ErrInternal", name, workers, err)
			}
			if got, want := idleCount(hot), idle-min(idle, workers); got != want {
				t.Errorf("%s: %d idle engines after a panicking sink at %d workers, want %d", name, got, workers, want)
			}
			if set, _ := idleMarks(hot); set != 0 {
				t.Errorf("%s: a panicking sink at %d workers returned %d set visited marks to the data graph", name, workers, set)
			}
			check(fmt.Sprintf("after a panicking sink at %d workers", workers), func() Limits { return Limits{} })
		}
	}
}

// TestPlanEngineListBounded: a plan keeps at most maxIdleEngines idle
// engines, a parallel run parks none of its workers' engines, and a plan
// built for one request (MatchFresh) keeps none.
func TestPlanEngineListBounded(t *testing.T) {
	q, g := engineFixture(t)
	cfg := PresetConfig(Optimized, q, g)
	plan, err := Preprocess(q, g, cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := MatchFresh(plan, Limits{}, time.Now()); err != nil {
		t.Fatal(err)
	}
	if n := idleCount(plan); n != 0 {
		t.Errorf("MatchFresh parked %d engines", n)
	}
	if _, err := MatchPlan(plan, Limits{Parallel: 4}); err != nil {
		t.Fatal(err)
	}
	if n := idleCount(plan); n != 0 {
		t.Errorf("a run at 4 workers parked %d engines", n)
	}
	var taken []*enumerate.Engine
	for range maxIdleEngines + 2 {
		e, err := plan.takeEngine(enumerate.Options{})
		if err != nil {
			t.Fatal(err)
		}
		taken = append(taken, e)
	}
	for _, e := range taken {
		plan.parkEngine(e)
	}
	if n := idleCount(plan); n != maxIdleEngines {
		t.Errorf("%d idle engines after %d were parked, want %d", n, len(taken), maxIdleEngines)
	}
}

// TestStressPlanEngines sends mixed sequential, parallel and cancelled
// requests from 8 goroutines to one plan. Runs under `make race-stress`:
// two requests that shared an engine or visited marks, or a parked
// engine a run still writes to, trip the race detector, and a mark a run
// left behind shows as a wrong count.
func TestStressPlanEngines(t *testing.T) {
	q, g := engineFixture(t)
	cfg := PresetConfig(Optimized, q, g)
	plan, err := Preprocess(q, g, cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	want, err := MatchPlan(plan, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	iters := 12
	if testing.Short() {
		iters = 4
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8*iters)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				switch (w + i) % 4 {
				case 0, 1:
					res, err := MatchPlan(plan, Limits{Parallel: 1 + (w+i)%4})
					if err != nil {
						errs <- err
					} else if res.Embeddings != want.Embeddings {
						errs <- fmt.Errorf("goroutine %d request %d: %d embeddings, want %d", w, i, res.Embeddings, want.Embeddings)
					}
				case 2:
					var c atomic.Bool
					c.Store(true)
					if _, err := MatchPlan(plan, Limits{Parallel: 1 + w%2, Cancel: &c}); err != nil {
						errs <- err
					}
				case 3:
					res, err := MatchPlan(plan, Limits{Parallel: 1 + w%3, MaxEmbeddings: 11})
					if err != nil {
						errs <- err
					} else if res.Embeddings != 11 || !res.LimitHit {
						errs <- fmt.Errorf("goroutine %d request %d: capped at 11, got %d (limit hit %v)", w, i, res.Embeddings, res.LimitHit)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if set, held := idleMarks(plan); set != 0 || held != 0 {
		t.Errorf("%d visited marks set in the data graph's free arrays, %d idle engines hold marks", set, held)
	}
	if n := idleCount(plan); n > maxIdleEngines {
		t.Errorf("%d idle engines after the stress, want at most %d", n, maxIdleEngines)
	}
}
