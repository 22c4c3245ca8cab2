package core

import (
	"fmt"

	"subgraphmatching/internal/enumerate"
	"subgraphmatching/internal/filter"
	"subgraphmatching/internal/graph"
	"subgraphmatching/internal/order"
)

// Algorithm names a preset configuration reproducing one of the eight
// algorithms studied by the paper, or the paper's recommended hybrid.
type Algorithm uint8

const (
	// QuickSI: direct enumeration with LDF candidates, infrequent-edge
	// ordering and Algorithm 2 local candidates.
	QuickSI Algorithm = iota
	// GraphQL: profile filtering with global refinement, left-deep
	// ordering, Algorithm 3 candidate scans.
	GraphQL
	// CFL: two-phase filtering, path-based ordering, the tree-edge
	// compressed path index with Algorithm 4.
	CFL
	// CECI: BFS construction/refinement, BFS ordering, full-edge index
	// with Algorithm 5 set intersections.
	CECI
	// DPIso: alternating refinement, adaptive ordering with path-count
	// weights, Algorithm 5, failing sets (the original's default).
	DPIso
	// RI: direct enumeration with RI's structural ordering.
	RI
	// VF2PP: direct enumeration with VF2++'s level ordering and extra
	// cutoff rules.
	VF2PP
	// Optimized is the paper's Section 6 recommendation: GraphQL
	// filtering, GraphQL/RI ordering by data-graph density, full-edge
	// index with set intersections, failing sets on large queries.
	Optimized
	// Glasgow is the constraint-programming solver.
	Glasgow
	// VF2Classic is the original VF2 state-space algorithm — the
	// baseline VF2++ is measured against.
	VF2Classic
	// Ullmann is Ullmann's 1976 algorithm with per-node refinement, the
	// historical baseline of Table 1.
	Ullmann
)

var algorithmNames = map[Algorithm]string{
	QuickSI: "QSI", GraphQL: "GQL", CFL: "CFL", CECI: "CECI",
	DPIso: "DPiso", RI: "RI", VF2PP: "VF2PP", Optimized: "Optimized",
	Glasgow: "GLW", VF2Classic: "VF2", Ullmann: "Ullmann",
}

func (a Algorithm) String() string {
	if s, ok := algorithmNames[a]; ok {
		return s
	}
	return fmt.Sprintf("Algorithm(%d)", a)
}

// ParseAlgorithm maps a name (as printed by String) back to an
// Algorithm.
func ParseAlgorithm(s string) (Algorithm, error) {
	for a, name := range algorithmNames {
		if name == s {
			return a, nil
		}
	}
	return 0, fmt.Errorf("core: unknown algorithm %q", s)
}

// Algorithms lists all presets in declaration order.
func Algorithms() []Algorithm {
	return []Algorithm{QuickSI, GraphQL, CFL, CECI, DPIso, RI, VF2PP, Optimized, Glasgow, VF2Classic, Ullmann}
}

// DenseGraphDegreeThreshold is the average data-graph degree above which
// the Optimized preset switches from RI's ordering to GraphQL's, per the
// paper's recommendation ("adopt the ordering methods of GraphQL and RI
// on dense and sparse data graphs respectively"). hu (36.9) and eu (37.4)
// are the paper's dense datasets; everything else is below 10.
const DenseGraphDegreeThreshold = 10.0

// LargeQueryThreshold is the query size at or above which the Optimized
// preset enables failing sets ("enable the failing sets pruning on large
// queries, but disable it on small ones"). Figure 15 shows the benefit
// appearing for |V(q)| >= 16.
const LargeQueryThreshold = 12

// PresetConfig returns the Config reproducing algorithm a for the given
// query and data graph. Most presets ignore q and g; Optimized consults
// the data graph's density and the query size, and Optimized and DPIso
// leave failing sets off on a query too large for them.
func PresetConfig(a Algorithm, q, g *graph.Graph) Config {
	switch a {
	case QuickSI:
		return Config{Filter: filter.LDF, Order: order.QSI, Local: enumerate.Direct}
	case RI:
		return Config{Filter: filter.LDF, Order: order.RI, Local: enumerate.Direct}
	case VF2PP:
		return Config{Filter: filter.LDF, Order: order.VF2PP, Local: enumerate.Direct, VF2PPRules: true}
	case GraphQL:
		return Config{Filter: filter.GQL, Order: order.GQL, Local: enumerate.Scan}
	case CFL:
		return Config{Filter: filter.CFL, Order: order.CFL, Local: enumerate.TreeEdge}
	case CECI:
		return Config{Filter: filter.CECI, Order: order.CECI, Local: enumerate.Intersect}
	case DPIso:
		return Config{
			Filter: filter.DPIso, Order: order.DPIso, Local: enumerate.Intersect,
			Adaptive: true, FailingSets: failingSetsFit(q),
		}
	case Optimized:
		cfg := Config{Filter: filter.GQL, Local: enumerate.Intersect}
		if g != nil && g.AverageDegree() >= DenseGraphDegreeThreshold {
			cfg.Order = order.GQL
		} else {
			cfg.Order = order.RI
		}
		if q != nil && q.NumVertices() >= LargeQueryThreshold {
			cfg.FailingSets = failingSetsFit(q)
		}
		return cfg
	case Glasgow:
		return Config{UseGlasgow: true}
	case VF2Classic:
		return Config{UseVF2: true}
	case Ullmann:
		return Config{UseUllmann: true}
	default:
		return Config{}
	}
}

// failingSetsFit reports whether failing sets can run over q: the
// presets that turn them on leave them off above
// enumerate.MaxFailingSetVertices query vertices, where
// enumerate.CheckOptions would refuse them, and EXPLAIN says so.
func failingSetsFit(q *graph.Graph) bool {
	return q == nil || q.NumVertices() <= enumerate.MaxFailingSetVertices
}

// OrderingStudyConfig is the setup of the paper's Section 5.3 ordering
// comparison: every ordering method runs on GraphQL's candidate sets with
// the full-edge auxiliary structure and Algorithm 5 local candidates, so
// only the order differs. DP-iso's entry keeps its adaptive selection.
func OrderingStudyConfig(om order.Method, failingSets bool) Config {
	return Config{
		Filter:      filter.GQL,
		Order:       om,
		Local:       enumerate.Intersect,
		FailingSets: failingSets,
		Adaptive:    om == order.DPIso,
	}
}
