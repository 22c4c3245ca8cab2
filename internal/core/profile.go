package core

import (
	"fmt"
	"io"
	"reflect"
	"sort"
	"strings"
	"time"

	"subgraphmatching/internal/enumerate"
)

// Profile is the EXPLAIN/ANALYZE view of one query execution: where
// candidates died during filtering, what order enumeration ran in and
// how many candidates each vertex carried into it, and how the search
// effort distributed over depths — the paper's finding that performance
// is decided by per-stage, per-vertex attribution, turned into a
// first-class result. A Profile built by ExplainPlan alone (the dry-run
// path) carries only the plan-side sections; explainResult adds the heat
// table and totals, which reconcile exactly with the Result:
// sum(Heat.Nodes) == Result.Nodes, the emit-depth row's Nodes plus
// sum(Heat.Counted), times Orbit, == Result.Embeddings, and the
// per-depth kernel tallies sum to Result.Kernels.
type Profile struct {
	// Filter is the per-stage candidate reduction table, in execution
	// order. The first stage's Before is |V(q)|·|V(g)| — every data
	// vertex a candidate for every query vertex.
	Filter []StageProfile `json:"filter,omitempty"`
	// OrderMethod names the matching order in use: the method that
	// computed it, which an order race (Race) may have changed.
	OrderMethod string `json:"order_method,omitempty"`
	// Race is the order race that chose the order — the limit it counted
	// to and each candidate order's node count — nil when the plan has
	// not raced.
	Race *Race `json:"race,omitempty"`
	// Order lists the matching order with each vertex's filtered
	// candidate cardinality (nil for adaptive runs, where the order is
	// chosen per search node).
	Order []OrderEntry `json:"order,omitempty"`
	// Adaptive marks runs with no static order.
	Adaptive bool `json:"adaptive,omitempty"`
	// Heat is the per-depth enumeration heat table (nil on dry runs).
	Heat []DepthHeat `json:"heat,omitempty"`
	// Split reports the parallel scheduler's task pool: root tasks and
	// the ones running searches donated (nil on sequential runs).
	Split *SplitProfile `json:"split,omitempty"`
	// Workers attributes search nodes per depth to each parallel worker
	// (nil on sequential runs).
	Workers []WorkerHeat `json:"workers,omitempty"`
	// Totals the heat table reconciles against.
	Embeddings uint64            `json:"embeddings"`
	Nodes      uint64            `json:"nodes"`
	Kernels    map[string]uint64 `json:"kernels,omitempty"`
	// Orbit is the symmetry-breaking multiplier: Embeddings is the
	// canonical count (the emit-depth Nodes plus the counted ones) times
	// Orbit. 1 when symmetry breaking is off.
	Orbit uint64 `json:"orbit,omitempty"`
	// Empty marks a plan whose filtering emptied a candidate set;
	// enumeration was skipped.
	Empty bool `json:"empty,omitempty"`
	// Analyzed distinguishes an executed profile (heat + totals valid)
	// from a dry-run EXPLAIN.
	Analyzed bool `json:"analyzed"`
	// FailingSets says why the plan runs without failing sets when a
	// preset that turns them on (Optimized on a large query, DP-iso) left
	// them off because its query is too large for them (more than
	// enumerate.MaxFailingSetVertices vertices); empty otherwise.
	FailingSets string `json:"failing_sets,omitempty"`
}

// failingSetsCapped reports whether plan runs without failing sets only
// because its query is too large for them: its tuple is the one that
// the Optimized or DP-iso preset, which turn them on for such a query,
// give past enumerate.MaxFailingSetVertices vertices. A tuple with
// failing sets off for any other reason (another preset, a Custom
// tuple that differs from these) gets no note.
func failingSetsCapped(plan *Plan) bool {
	if plan.Cfg.FailingSets || plan.Query.NumVertices() <= enumerate.MaxFailingSetVertices {
		return false
	}
	for _, a := range []Algorithm{Optimized, DPIso} {
		if reflect.DeepEqual(plan.Cfg, PresetConfig(a, plan.Query, plan.Data)) {
			return true
		}
	}
	return false
}

// StageProfile is one filtering stage's candidate reduction.
type StageProfile struct {
	Name       string `json:"name"`
	DurationNS int64  `json:"duration_ns"`
	// Before and After total |C(u)| over the query vertices at the
	// stage's boundaries; Ratio is the surviving fraction After/Before.
	Before uint64  `json:"before"`
	After  uint64  `json:"after"`
	Ratio  float64 `json:"ratio"`
	// Counts holds |C(u)| per query vertex after the stage.
	Counts []uint32 `json:"counts,omitempty"`
}

// OrderEntry is one position of the matching order.
type OrderEntry struct {
	Position   int `json:"position"`
	Vertex     int `json:"vertex"`
	Candidates int `json:"candidates"`
}

// DepthHeat is one row of the enumeration heat table.
type DepthHeat struct {
	Depth int `json:"depth"`
	// Vertex is the query vertex mapped at this depth, -1 when no
	// single vertex owns the depth (adaptive order, or the emit depth).
	Vertex          int    `json:"vertex"`
	Nodes           uint64 `json:"nodes"`
	Candidates      uint64 `json:"candidates"`
	Extended        uint64 `json:"extended"`
	Conflicts       uint64 `json:"conflicts"`
	EmptyLC         uint64 `json:"empty_lc"`
	SymmetrySkips   uint64 `json:"symmetry_skips,omitempty"`
	FailingSetSkips uint64 `json:"failing_set_skips,omitempty"`
	// Counted is the embeddings this depth's nodes counted without
	// enumerating them (Config.CountTail): the emit-depth Nodes plus
	// every depth's Counted, times Orbit, is Embeddings.
	Counted uint64            `json:"counted,omitempty"`
	Kernels map[string]uint64 `json:"kernels,omitempty"`
}

// WorkerHeat is one parallel worker's per-depth node counts.
type WorkerHeat struct {
	Worker int      `json:"worker"`
	Nodes  []uint64 `json:"nodes"`
}

// SplitProfile is the EXPLAIN view of the parallel scheduler's task
// pool, Result.Split's shape fields.
type SplitProfile struct {
	Tasks      int `json:"tasks"`
	SplitTasks int `json:"split_tasks"`
	MaxPrefix  int `json:"max_prefix"`
}

// ExplainPlan builds the dry-run EXPLAIN for a plan: filter-stage
// reduction and the matching order with candidate cardinalities, without
// enumerating. The serving layer's GET /explain endpoint is this
// function behind the plan cache.
func ExplainPlan(plan *Plan) *Profile {
	p := &Profile{
		OrderMethod: plan.OrderMethod,
		Race:        plan.Race,
		Orbit:       plan.Orbit,
		Empty:       plan.Empty,
		Adaptive:    plan.Cfg.Adaptive,
	}
	if failingSetsCapped(plan) {
		p.FailingSets = fmt.Sprintf("off: the query has %d vertices, failing sets support at most %d", plan.Query.NumVertices(), enumerate.MaxFailingSetVertices)
	}
	before := uint64(plan.Query.NumVertices()) * uint64(plan.Data.NumVertices())
	for _, st := range plan.Stages {
		after := st.Candidates
		ratio := 1.0
		if before > 0 {
			ratio = float64(after) / float64(before)
		}
		p.Filter = append(p.Filter, StageProfile{
			Name:       st.Name,
			DurationNS: st.Duration.Nanoseconds(),
			Before:     before,
			After:      after,
			Ratio:      ratio,
			Counts:     st.Counts,
		})
		before = after
	}
	if !plan.Cfg.Adaptive {
		for i, u := range plan.Order {
			p.Order = append(p.Order, OrderEntry{
				Position:   i,
				Vertex:     int(u),
				Candidates: len(plan.Cand[u]),
			})
		}
	}
	return p
}

// explainResult extends the plan's EXPLAIN with the executed run's heat
// table, worker attribution and totals.
func explainResult(plan *Plan, res *Result) *Profile {
	p := ExplainPlan(plan)
	p.Analyzed = true
	p.Embeddings = res.Embeddings
	p.Nodes = res.Nodes
	p.Kernels = res.Kernels.Map()
	if s := res.Split; s != nil {
		p.Split = &SplitProfile{Tasks: s.Tasks, SplitTasks: s.SplitTasks, MaxPrefix: s.MaxPrefix}
	}
	if prof := res.Profile; prof != nil {
		n := prof.MaxDepth()
		for d := 0; d < len(prof.Nodes); d++ {
			row := DepthHeat{
				Depth:           d,
				Vertex:          -1,
				Nodes:           prof.Nodes[d],
				Candidates:      prof.Candidates[d],
				Extended:        prof.Extended[d],
				Conflicts:       prof.Conflicts[d],
				EmptyLC:         prof.EmptyLC[d],
				SymmetrySkips:   prof.SymmetrySkips[d],
				FailingSetSkips: prof.FailingSetSkips[d],
				Counted:         prof.Counted[d],
				Kernels:         prof.Kernels[d].Map(),
			}
			if !plan.Cfg.Adaptive && d < n && d < len(plan.Order) {
				row.Vertex = int(plan.Order[d])
			}
			if row.Nodes == 0 && row.Candidates == 0 && len(row.Kernels) == 0 {
				continue
			}
			p.Heat = append(p.Heat, row)
		}
	}
	for w, wp := range res.WorkerProfiles {
		if wp == nil {
			continue
		}
		nodes := append([]uint64(nil), wp.Nodes...)
		p.Workers = append(p.Workers, WorkerHeat{Worker: w, Nodes: nodes})
	}
	return p
}

// Render writes the profile as aligned text — the smatch -explain view.
func (p *Profile) Render(w io.Writer) {
	if len(p.Filter) > 0 {
		fmt.Fprintf(w, "filter stages:\n")
		fmt.Fprintf(w, "  %-12s %10s %12s %12s %8s\n", "stage", "time", "before", "after", "kept")
		for _, st := range p.Filter {
			fmt.Fprintf(w, "  %-12s %10s %12d %12d %7.1f%%\n",
				st.Name, time.Duration(st.DurationNS).Round(time.Microsecond),
				st.Before, st.After, 100*st.Ratio)
		}
	}
	if p.Empty {
		fmt.Fprintf(w, "plan: empty candidate set, enumeration skipped\n")
		return
	}
	if p.Adaptive {
		fmt.Fprintf(w, "order: adaptive (chosen per search node)\n")
	} else if len(p.Order) > 0 {
		parts := make([]string, len(p.Order))
		for i, e := range p.Order {
			parts[i] = fmt.Sprintf("u%d(%d)", e.Vertex, e.Candidates)
		}
		fmt.Fprintf(w, "order (%s): %s\n", p.OrderMethod, strings.Join(parts, " -> "))
	} else if p.OrderMethod != "" {
		fmt.Fprintf(w, "order (%s): the engine's own, chosen as it searches\n", p.OrderMethod)
	}
	if r := p.Race; r != nil {
		parts := make([]string, len(r.Entries))
		for i, e := range r.Entries {
			parts[i] = fmt.Sprintf("%s %d", e.Order, e.Nodes)
			switch {
			case i == r.Winner:
				parts[i] += " (won)"
			case e.Stopped:
				parts[i] += " (stopped)"
			}
		}
		fmt.Fprintf(w, "order race at limit %d, nodes: %s\n", r.Limit, strings.Join(parts, ", "))
	}
	if p.FailingSets != "" {
		fmt.Fprintf(w, "failing sets: %s\n", p.FailingSets)
	}
	if !p.Analyzed {
		return
	}
	if len(p.Heat) > 0 {
		fmt.Fprintf(w, "enumeration heat:\n")
		fmt.Fprintf(w, "  %5s %6s %12s %12s %12s %10s %8s %8s %8s %12s  %s\n",
			"depth", "vertex", "nodes", "candidates", "extended",
			"conflicts", "emptyLC", "sym-skip", "fs-skip", "counted", "kernels")
		for _, h := range p.Heat {
			v := "-"
			if h.Vertex >= 0 {
				v = fmt.Sprintf("u%d", h.Vertex)
			}
			fmt.Fprintf(w, "  %5d %6s %12d %12d %12d %10d %8d %8d %8d %12d  %s\n",
				h.Depth, v, h.Nodes, h.Candidates, h.Extended,
				h.Conflicts, h.EmptyLC, h.SymmetrySkips, h.FailingSetSkips,
				h.Counted, kernelMix(h.Kernels))
		}
	}
	if s := p.Split; s != nil {
		fmt.Fprintf(w, "split: tasks=%d donated=%d max-prefix=%d\n", s.Tasks, s.SplitTasks, s.MaxPrefix)
	}
	if len(p.Workers) > 0 {
		fmt.Fprintf(w, "workers:\n")
		for _, wh := range p.Workers {
			var total uint64
			for _, n := range wh.Nodes {
				total += n
			}
			fmt.Fprintf(w, "  worker %-3d nodes=%d per-depth=%v\n", wh.Worker, total, wh.Nodes)
		}
	}
	fmt.Fprintf(w, "totals: embeddings=%d nodes=%d", p.Embeddings, p.Nodes)
	if p.Orbit > 1 {
		fmt.Fprintf(w, " orbit=%d", p.Orbit)
	}
	if len(p.Kernels) > 0 {
		fmt.Fprintf(w, " kernels=%s", kernelMix(p.Kernels))
	}
	fmt.Fprintf(w, "\n")
}

// kernelMix formats a kernel tally map deterministically (sorted by
// name), "-" when empty.
func kernelMix(m map[string]uint64) string {
	if len(m) == 0 {
		return "-"
	}
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	parts := make([]string, len(names))
	for i, k := range names {
		parts[i] = fmt.Sprintf("%s:%d", k, m[k])
	}
	return strings.Join(parts, ",")
}

// heatNodesTotal sums the heat table's node counts — the reconciliation
// identity tests assert against Result.Nodes.
func (p *Profile) heatNodesTotal() uint64 {
	var t uint64
	for _, h := range p.Heat {
		t += h.Nodes
	}
	return t
}
