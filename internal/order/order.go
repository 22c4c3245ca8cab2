// Package order implements the query-vertex ordering methods of the
// study (paper Section 3.2): QuickSI's infrequent-edge-first order,
// GraphQL's left-deep greedy order, CFL's path-based order, CECI's BFS
// order, DP-iso's static BFS order plus the weight array for its adaptive
// selection, RI's purely structural order, and VF2++'s level-by-level
// order. A uniform random-order sampler supports the spectrum analysis of
// Figure 14.
package order

import (
	"fmt"

	"subgraphmatching/internal/graph"
)

// Method selects an ordering method.
type Method uint8

const (
	// QSI is QuickSI's infrequent-edge-first ordering.
	QSI Method = iota
	// GQL is GraphQL's left-deep join ordering (greedy min |C(u)|).
	GQL
	// CFL is CFL's path-based ordering with path-count estimation.
	CFL
	// CECI uses the BFS traversal order from CECI's root.
	CECI
	// DPIso is DP-iso's BFS order delta; pair with the enumerator's
	// adaptive mode and BuildDPWeights for the full adaptive behaviour.
	DPIso
	// RI is RI's structure-only ordering.
	RI
	// VF2PP is VF2++'s BFS-level ordering.
	VF2PP
)

var methodNames = map[Method]string{
	QSI: "QSI", GQL: "GQL", CFL: "CFL", CECI: "CECI",
	DPIso: "DPiso", RI: "RI", VF2PP: "VF2PP",
}

func (m Method) String() string {
	if s, ok := methodNames[m]; ok {
		return s
	}
	return fmt.Sprintf("Method(%d)", m)
}

// ParseMethod maps a name (as printed by String) back to a Method.
func ParseMethod(s string) (Method, error) {
	for m, name := range methodNames {
		if name == s {
			return m, nil
		}
	}
	return 0, fmt.Errorf("order: unknown method %q", s)
}

// Methods lists all ordering methods in declaration order.
func Methods() []Method { return []Method{QSI, GQL, CFL, CECI, DPIso, RI, VF2PP} }

// Compute generates a matching order with method m. The candidate sets
// cand are consulted by the candidate-size-driven methods (GQL, CFL,
// CECI, DPIso); the structure-only methods (QSI, RI, VF2PP) ignore them
// and may receive nil.
func Compute(m Method, q, g *graph.Graph, cand [][]uint32) ([]graph.Vertex, error) {
	if q.NumVertices() == 0 {
		return nil, fmt.Errorf("order: empty query graph")
	}
	needCand := m == GQL || m == CFL || m == CECI || m == DPIso
	if needCand && len(cand) != q.NumVertices() {
		return nil, fmt.Errorf("order: method %v needs candidate sets", m)
	}
	switch m {
	case QSI:
		return ComputeQSI(q, g), nil
	case GQL:
		return ComputeGQL(q, cand), nil
	case CFL:
		return ComputeCFL(q, g, cand), nil
	case CECI:
		return ComputeCECI(q, g), nil
	case DPIso:
		return ComputeDPIso(q, g), nil
	case RI:
		return ComputeRI(q), nil
	case VF2PP:
		return ComputeVF2PP(q, g), nil
	default:
		return nil, fmt.Errorf("order: unknown method %v", m)
	}
}

// Validate checks that phi is a permutation of V(q) whose every prefix
// beyond the first vertex is connected (each vertex has a backward
// neighbor).
func Validate(q *graph.Graph, phi []graph.Vertex) error {
	n := q.NumVertices()
	if len(phi) != n {
		return fmt.Errorf("order: length %d, want %d", len(phi), n)
	}
	pos := make([]int, n)
	for i := range pos {
		pos[i] = -1
	}
	for i, u := range phi {
		if int(u) >= n || pos[u] >= 0 {
			return fmt.Errorf("order: not a permutation at position %d", i)
		}
		pos[u] = i
	}
	for i := 1; i < n; i++ {
		u := phi[i]
		ok := false
		for _, un := range q.Neighbors(u) {
			if pos[un] < i {
				ok = true
				break
			}
		}
		if !ok {
			return fmt.Errorf("order: u%d at position %d has no backward neighbor", u, i)
		}
	}
	return nil
}
