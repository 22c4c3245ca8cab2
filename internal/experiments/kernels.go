package experiments

import (
	"fmt"
	"time"

	"subgraphmatching/internal/core"
	"subgraphmatching/internal/enumerate"
	"subgraphmatching/internal/filter"
	"subgraphmatching/internal/graph"
	"subgraphmatching/internal/intersect"
	"subgraphmatching/internal/order"
	"subgraphmatching/internal/workload"
)

// KernelAudit is one corpus's row of the adaptive-kernel audit (ROADMAP
// item 10): what the adaptive selector does on it, what encoding block
// arenas on the selector's first pick saves against building them all,
// and what pinning the merge kernel would cost.
type KernelAudit struct {
	// Plans counts the plans searched; Encoding those whose search
	// encoded at least one arena.
	Plans, Encoding int
	// Pairs counts the plans' materialized pairs, and Encoded the pairs
	// whose arena the searches encoded.
	Pairs, Encoded int
	// LazyBytes is what the encoded arenas hold, EagerBytes what every
	// arena of every plan would.
	LazyBytes, EagerBytes int64
	// Kernels is the adaptive selector's kernel calls.
	Kernels intersect.KernelStats
	// Adaptive and Merge sum the enumeration time under the adaptive
	// policy (first-pick encoding included) and under PolicyMerge.
	Adaptive, Merge time.Duration
}

// add accumulates another audit into a.
func (a *KernelAudit) add(o KernelAudit) {
	a.Plans += o.Plans
	a.Encoding += o.Encoding
	a.Pairs += o.Pairs
	a.Encoded += o.Encoded
	a.LazyBytes += o.LazyBytes
	a.EagerBytes += o.EagerBytes
	a.Kernels.Add(o.Kernels)
	a.Adaptive += o.Adaptive
	a.Merge += o.Merge
}

// AuditKernels plans every query of set under cfg(q) with the adaptive
// kernel, searches it once under limits on one worker, reads which
// arenas the search encoded, and then times the same search under
// PolicyMerge. Configurations without set-intersection local
// candidates are skipped: they never run a kernel.
func AuditKernels(set []*graph.Graph, g *graph.Graph, cfg func(q *graph.Graph) core.Config, limits core.Limits) (KernelAudit, error) {
	var a KernelAudit
	for _, q := range set {
		c := cfg(q)
		if c.Local != enumerate.Intersect {
			continue
		}
		c.Kernel = intersect.PolicyAdaptive
		plan, err := core.Preprocess(q, g, c, 1)
		if err != nil {
			return a, err
		}
		if plan.Empty {
			continue
		}
		res, err := core.MatchPlan(plan, limits)
		if err != nil {
			return a, err
		}
		encoded, lazy := plan.Space.EncodedBlocks()
		plan.Space.MaterializeBlocks()
		pairs, all := plan.Space.EncodedBlocks()
		a.Plans++
		if encoded > 0 {
			a.Encoding++
		}
		a.Pairs += pairs
		a.Encoded += encoded
		a.LazyBytes += lazy
		a.EagerBytes += all
		a.Kernels.Add(res.Kernels)
		a.Adaptive += res.EnumTime

		c.Kernel = intersect.PolicyMerge
		merge, err := core.Match(q, g, c, limits)
		if err != nil {
			return a, err
		}
		a.Merge += merge.EnumTime
	}
	return a, nil
}

// row renders the audit as the cells of the table Kernels prints.
func (a KernelAudit) row() []string {
	pct := func(n, of int) string {
		if of == 0 {
			return "-"
		}
		return fmt.Sprintf("%.2f%%", 100*float64(n)/float64(of))
	}
	return []string{
		fmt.Sprint(a.Kernels[intersect.KernelMerge]),
		fmt.Sprint(a.Kernels[intersect.KernelGallop]),
		fmt.Sprint(a.Kernels[intersect.KernelBlock]),
		fmt.Sprintf("%d/%d", a.Encoding, a.Plans), pct(a.Encoded, a.Pairs),
		workload.FmtBytes(a.LazyBytes), workload.FmtBytes(a.EagerBytes),
		workload.FmtMS(a.Adaptive), workload.FmtMS(a.Merge),
	}
}

// kernelAuditHeader names row's cells.
var kernelAuditHeader = []string{
	"merge", "gallop", "block", "plans enc", "pairs enc", "arena lazy", "arena eager", "adaptive", "merge-only",
}

// Kernels is the adaptive-kernel audit over the stand-ins: Figure 9's
// optimized arms, Figure 10's intersection pipeline and Figure 16's
// set-intersection configurations, each run under the adaptive policy
// (the serving default) on the dataset's default query set.
func Kernels(env Env) error {
	env = env.WithDefaults()
	section(env.Out, "Adaptive kernels: kernel mix, first-pick arenas, merge-only time", "ROADMAP item 10's audit over Figures 9, 10 and 16")
	groups := []struct {
		name string
		cfgs []func(q, g *graph.Graph) core.Config
	}{
		{"fig9", nil},
		{"fig10", []func(q, g *graph.Graph) core.Config{func(q, g *graph.Graph) core.Config {
			return core.Config{Filter: filter.GQL, Order: order.GQL, Local: enumerate.Intersect}
		}}},
		{"fig16", []func(q, g *graph.Graph) core.Config{
			func(q, g *graph.Graph) core.Config { return core.OrderingStudyConfig(order.GQL, true) },
			func(q, g *graph.Graph) core.Config { return core.OrderingStudyConfig(order.RI, true) },
			func(q, g *graph.Graph) core.Config { return core.PresetConfig(core.CECI, q, g) },
			func(q, g *graph.Graph) core.Config { return core.PresetConfig(core.DPIso, q, g) },
		}},
	}
	for _, p := range fig9Pairs() {
		opt := p.opt
		groups[0].cfgs = append(groups[0].cfgs, func(_, _ *graph.Graph) core.Config { return opt })
	}
	t := workload.Table{
		Title:  "adaptive policy per dataset and figure (kernel calls; plans and pairs whose arena the first pick encodes; arena bytes; enumeration ms, summed)",
		Header: append([]string{"dataset", "figure"}, kernelAuditHeader...),
	}
	for _, ds := range env.Datasets {
		g, err := dataGraph(ds)
		if err != nil {
			return err
		}
		dense, sparse, err := defaultSets(env, ds)
		if err != nil {
			return err
		}
		set := dense
		if set == nil {
			set = sparse
		}
		for _, grp := range groups {
			var a KernelAudit
			for _, cfg := range grp.cfgs {
				one, err := AuditKernels(set.Queries, g, func(q *graph.Graph) core.Config { return cfg(q, g) }, env.Limits())
				if err != nil {
					return err
				}
				a.add(one)
			}
			t.AddRow(append([]string{ds + "/" + set.Name, grp.name}, a.row()...)...)
		}
	}
	env.render(&t)
	return nil
}
