package core

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// Profile is the EXPLAIN/ANALYZE view of one query execution: where
// candidates died during filtering, what order enumeration ran in and
// how many candidates each vertex carried into it, and how the search
// effort distributed over depths — the paper's finding that performance
// is decided by per-stage, per-vertex attribution, turned into a
// first-class result. A Profile built by ExplainPlan alone (the dry-run
// path) carries only the plan-side sections; explainResult adds the heat
// table and totals, which reconcile exactly with the Result:
// sum(Heat.Nodes) == Result.Nodes, the emit-depth row's Nodes times
// Orbit == Result.Embeddings, and the per-depth kernel tallies sum to
// Result.Kernels.
type Profile struct {
	// Filter is the per-stage candidate reduction table, in execution
	// order. The first stage's Before is |V(q)|·|V(g)| — every data
	// vertex a candidate for every query vertex.
	Filter []StageProfile `json:"filter,omitempty"`
	// OrderMethod names how the matching order was chosen.
	OrderMethod string `json:"order_method,omitempty"`
	// Order lists the matching order with each vertex's filtered
	// candidate cardinality (nil for adaptive runs, where the order is
	// chosen per search node).
	Order []OrderEntry `json:"order,omitempty"`
	// Adaptive marks runs with no static order.
	Adaptive bool `json:"adaptive,omitempty"`
	// Heat is the per-depth enumeration heat table (nil on dry runs).
	// Parallel runs that probed the search space while splitting tasks
	// carry the probe work as a leading row with Depth == -1, so the
	// table's node and kernel sums still reconcile with the totals.
	Heat []DepthHeat `json:"heat,omitempty"`
	// Split reports the parallel scheduler's task-splitting: pool shape,
	// probe cost, and the cost model's node prediction next to the
	// measured count (nil on sequential runs).
	Split *SplitProfile `json:"split,omitempty"`
	// Workers attributes search nodes per depth to each parallel worker
	// (nil on sequential runs).
	Workers []WorkerHeat `json:"workers,omitempty"`
	// Totals the heat table reconciles against.
	Embeddings uint64            `json:"embeddings"`
	Nodes      uint64            `json:"nodes"`
	Kernels    map[string]uint64 `json:"kernels,omitempty"`
	// Orbit is the symmetry-breaking multiplier: Embeddings is the
	// canonical count (the emit-depth Nodes) times Orbit. 1 when
	// symmetry breaking is off.
	Orbit uint64 `json:"orbit,omitempty"`
	// Empty marks a plan whose filtering emptied a candidate set;
	// enumeration was skipped.
	Empty bool `json:"empty,omitempty"`
	// Analyzed distinguishes an executed profile (heat + totals valid)
	// from a dry-run EXPLAIN.
	Analyzed bool `json:"analyzed"`
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
	Vertex          int               `json:"vertex"`
	Nodes           uint64            `json:"nodes"`
	Candidates      uint64            `json:"candidates"`
	Extended        uint64            `json:"extended"`
	Conflicts       uint64            `json:"conflicts"`
	EmptyLC         uint64            `json:"empty_lc"`
	SymmetrySkips   uint64            `json:"symmetry_skips,omitempty"`
	FailingSetSkips uint64            `json:"failing_set_skips,omitempty"`
	Kernels         map[string]uint64 `json:"kernels,omitempty"`
}

// WorkerHeat is one parallel worker's per-depth node counts.
type WorkerHeat struct {
	Worker int      `json:"worker"`
	Nodes  []uint64 `json:"nodes"`
}

// SplitProfile is the EXPLAIN view of the parallel scheduler's task
// splitting — Result.Split with the prediction comparison made explicit.
// MeasuredNodes is the enumeration node count the workers actually
// expanded (the run's Nodes total minus the probe row), the number
// PredictedNodes claims to forecast.
type SplitProfile struct {
	Tasks           int    `json:"tasks"`
	SplitTasks      int    `json:"split_tasks"`
	MaxPrefix       int    `json:"max_prefix"`
	Probes          uint64 `json:"probes"`
	ProbeCandidates uint64 `json:"probe_candidates"`
	PredictedNodes  uint64 `json:"predicted_nodes,omitempty"`
	MeasuredNodes   uint64 `json:"measured_nodes"`
}

// ExplainPlan builds the dry-run EXPLAIN for a plan: filter-stage
// reduction and the matching order with candidate cardinalities, without
// enumerating. The serving layer's GET /explain endpoint is this
// function behind the plan cache.
func ExplainPlan(plan *Plan) *Profile {
	p := &Profile{
		OrderMethod: plan.OrderMethod,
		Orbit:       plan.Orbit,
		Empty:       plan.Empty,
		Adaptive:    plan.Cfg.Adaptive,
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
		p.Split = &SplitProfile{
			Tasks:           s.Tasks,
			SplitTasks:      s.SplitTasks,
			MaxPrefix:       s.MaxPrefix,
			Probes:          s.Probes,
			ProbeCandidates: s.ProbeCandidates,
			PredictedNodes:  s.PredictedNodes,
			MeasuredNodes:   res.Nodes - s.Probes,
		}
		if s.Probes > 0 {
			// The probe row keeps sum(Heat.Nodes) == Nodes and the heat
			// kernel sums == Kernels exact: probe work is in the totals,
			// so the table must carry it too.
			p.Heat = append(p.Heat, DepthHeat{
				Depth:      -1,
				Vertex:     -1,
				Nodes:      s.Probes,
				Candidates: s.ProbeCandidates,
				Kernels:    s.ProbeKernels.Map(),
			})
		}
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
	}
	if !p.Analyzed {
		return
	}
	if len(p.Heat) > 0 {
		fmt.Fprintf(w, "enumeration heat:\n")
		fmt.Fprintf(w, "  %5s %6s %12s %12s %12s %10s %8s %8s %8s  %s\n",
			"depth", "vertex", "nodes", "candidates", "extended",
			"conflicts", "emptyLC", "sym-skip", "fs-skip", "kernels")
		for _, h := range p.Heat {
			v := "-"
			if h.Vertex >= 0 {
				v = fmt.Sprintf("u%d", h.Vertex)
			}
			d := fmt.Sprintf("%d", h.Depth)
			if h.Depth < 0 {
				d = "probe"
			}
			fmt.Fprintf(w, "  %5s %6s %12d %12d %12d %10d %8d %8d %8d  %s\n",
				d, v, h.Nodes, h.Candidates, h.Extended,
				h.Conflicts, h.EmptyLC, h.SymmetrySkips, h.FailingSetSkips,
				kernelMix(h.Kernels))
		}
	}
	if s := p.Split; s != nil {
		fmt.Fprintf(w, "split: tasks=%d split=%d max-prefix=%d probes=%d",
			s.Tasks, s.SplitTasks, s.MaxPrefix, s.Probes)
		if s.PredictedNodes > 0 && s.MeasuredNodes > 0 {
			fmt.Fprintf(w, " predicted-nodes=%d measured-nodes=%d (x%.2f)",
				s.PredictedNodes, s.MeasuredNodes,
				float64(s.PredictedNodes)/float64(s.MeasuredNodes))
		} else if s.PredictedNodes > 0 {
			fmt.Fprintf(w, " predicted-nodes=%d measured-nodes=%d",
				s.PredictedNodes, s.MeasuredNodes)
		}
		fmt.Fprintf(w, "\n")
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
