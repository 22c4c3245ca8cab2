package enumerate

import (
	"fmt"
	"io"
	"strings"

	"subgraphmatching/internal/intersect"
)

// SearchProfile records per-depth search-tree statistics, the
// paper-style analysis of where a backtracking search spends its effort:
// node counts, local-candidate volumes, and why candidates were
// discarded (injectivity conflicts, symmetry ordering, failing-set
// sibling skips).
type SearchProfile struct {
	// Nodes[d] counts search-tree nodes entered at depth d.
	Nodes []uint64
	// Candidates[d] counts local candidates produced at depth d.
	Candidates []uint64
	// Extended[d] counts candidates actually assigned at depth d.
	Extended []uint64
	// Conflicts[d] counts candidates rejected because their data vertex
	// was already mapped (isomorphism injectivity).
	Conflicts []uint64
	// SymmetrySkips[d] counts candidates rejected by symmetry breaking.
	SymmetrySkips []uint64
	// EmptyLC[d] counts nodes whose local candidate set was empty, and
	// counting nodes (Counted) that counted no completion.
	EmptyLC []uint64
	// FailingSetSkips[d] counts sibling groups pruned by the
	// failing-set optimization at depth d.
	FailingSetSkips []uint64
	// Counted[d] counts the embeddings nodes at depth d counted without
	// enumerating them (Options.CountTail): with them, Nodes[n] +
	// sum(Counted) is Stats.Embeddings, where Nodes[n] alone is without
	// a counted tail. A counting node adds the LCs of every tail position
	// to Candidates[d], and their kernels to Kernels[d].
	Counted []uint64
	// Kernels[d] tallies the pairwise intersection-kernel executions
	// performed while computing local candidates for depth d (for the
	// adaptive order: while activating the children of the vertex mapped
	// at depth d). Summed over depths it equals the run's Stats.Kernels —
	// the per-depth split of the kernel mix.
	Kernels []intersect.KernelStats
}

func newSearchProfile(n int) *SearchProfile {
	return &SearchProfile{
		Nodes:           make([]uint64, n+1),
		Candidates:      make([]uint64, n+1),
		Extended:        make([]uint64, n+1),
		Conflicts:       make([]uint64, n+1),
		SymmetrySkips:   make([]uint64, n+1),
		EmptyLC:         make([]uint64, n+1),
		FailingSetSkips: make([]uint64, n+1),
		Counted:         make([]uint64, n+1),
		Kernels:         make([]intersect.KernelStats, n+1),
	}
}

// reset zeroes every counter in place so a reused engine starts each
// run with a clean profile without reallocating the slices.
func (p *SearchProfile) reset() {
	for _, s := range [][]uint64{
		p.Nodes, p.Candidates, p.Extended, p.Conflicts,
		p.SymmetrySkips, p.EmptyLC, p.FailingSetSkips, p.Counted,
	} {
		for i := range s {
			s[i] = 0
		}
	}
	for i := range p.Kernels {
		p.Kernels[i] = intersect.KernelStats{}
	}
}

// addKernelDelta attributes the selector-stat movement between two
// snapshots to one depth. Called only on profiled runs, with snapshots
// taken around the local-candidate computation.
func (p *SearchProfile) addKernelDelta(depth int, before, after intersect.KernelStats) {
	for i := range after {
		if d := after[i] - before[i]; d != 0 {
			p.Kernels[depth][i] += d
		}
	}
}

// Merge adds o's counters into p depth by depth — the aggregation step
// for parallel runs, where each worker profiles its own engine. Profiles
// of different depths merge over the shorter one's range.
func (p *SearchProfile) Merge(o *SearchProfile) {
	if o == nil {
		return
	}
	pairs := [][2][]uint64{
		{p.Nodes, o.Nodes}, {p.Candidates, o.Candidates},
		{p.Extended, o.Extended}, {p.Conflicts, o.Conflicts},
		{p.SymmetrySkips, o.SymmetrySkips}, {p.EmptyLC, o.EmptyLC},
		{p.FailingSetSkips, o.FailingSetSkips}, {p.Counted, o.Counted},
	}
	for _, pr := range pairs {
		dst, src := pr[0], pr[1]
		for i := 0; i < len(dst) && i < len(src); i++ {
			dst[i] += src[i]
		}
	}
	for i := 0; i < len(p.Kernels) && i < len(o.Kernels); i++ {
		p.Kernels[i].Add(o.Kernels[i])
	}
}

// NewSearchProfile returns an empty profile for n query vertices —
// the merge target a parallel runner aggregates worker profiles into.
func NewSearchProfile(n int) *SearchProfile { return newSearchProfile(n) }

// MaxDepth returns the number of query-vertex depths profiled.
func (p *SearchProfile) MaxDepth() int { return len(p.Nodes) - 1 }

// TotalNodes sums node counts over all depths.
func (p *SearchProfile) TotalNodes() uint64 {
	var t uint64
	for _, n := range p.Nodes {
		t += n
	}
	return t
}

// Render writes the profile as an aligned per-depth table.
func (p *SearchProfile) Render(w io.Writer) {
	fmt.Fprintf(w, "%5s %12s %12s %12s %10s %9s %8s %8s %12s\n",
		"depth", "nodes", "candidates", "extended", "conflicts", "sym-skip", "emptyLC", "fs-skip", "counted")
	fmt.Fprintf(w, "%s\n", strings.Repeat("-", 97))
	for d := 0; d < len(p.Nodes); d++ {
		if p.Nodes[d] == 0 && p.Candidates[d] == 0 {
			continue
		}
		fmt.Fprintf(w, "%5d %12d %12d %12d %10d %9d %8d %8d %12d\n",
			d, p.Nodes[d], p.Candidates[d], p.Extended[d],
			p.Conflicts[d], p.SymmetrySkips[d], p.EmptyLC[d], p.FailingSetSkips[d], p.Counted[d])
	}
}

// branchingSummary describes the search shape compactly: the depth with
// the widest fanout and the fraction of candidates that survive to be
// extended.
func (p *SearchProfile) BranchingSummary() string {
	widest, widestD := uint64(0), 0
	var cands, ext uint64
	for d := range p.Candidates {
		if p.Candidates[d] > widest {
			widest, widestD = p.Candidates[d], d
		}
		cands += p.Candidates[d]
		ext += p.Extended[d]
	}
	rate := 0.0
	if cands > 0 {
		rate = 100 * float64(ext) / float64(cands)
	}
	return fmt.Sprintf("widest fanout %d candidates at depth %d; %.1f%% of candidates extended",
		widest, widestD, rate)
}
