// Package filter implements the candidate-vertex filtering methods of the
// study (paper Section 3.1): the LDF and NLF baselines, GraphQL's
// profile-based local pruning with pseudo-isomorphism global refinement,
// CFL's two-phase compressed-path construction, CECI's forward/backward
// construction, DP-iso's alternating refinement passes, and the STEADY
// fix-point baseline used in Figure 8.
//
// Every method produces, for each query vertex u, a sorted complete
// candidate vertex set C(u) (Definition 2.2): if (u,v) appears in any
// match, then v ∈ C(u). Methods differ only in how aggressively they
// prune while preserving completeness.
package filter

import (
	"fmt"
	"time"

	"subgraphmatching/internal/graph"
)

// Method selects a filtering method.
type Method uint8

const (
	// LDF is label-and-degree filtering: C(u) = {v : L(v)=L(u), d(v)>=d(u)}.
	LDF Method = iota
	// NLF adds the neighbor label frequency check to LDF.
	NLF
	// GQL is GraphQL's local pruning plus global refinement.
	GQL
	// CFL is CFL's BFS-tree top-down generation and bottom-up refinement.
	CFL
	// CECI is CECI's construction along the BFS order with reverse
	// refinement by tree children.
	CECI
	// DPIso is DP-iso's LDF initialization with k alternating
	// refinement passes (default 3).
	DPIso
	// Steady iterates Filtering Rule 3.1 to a fix point; the strongest
	// (and slowest) pruning based on Observation 3.1.
	Steady
)

var methodNames = map[Method]string{
	LDF: "LDF", NLF: "NLF", GQL: "GQL", CFL: "CFL",
	CECI: "CECI", DPIso: "DPiso", Steady: "STEADY",
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
	return 0, fmt.Errorf("filter: unknown method %q", s)
}

// Methods lists all filtering methods in declaration order.
func Methods() []Method { return []Method{LDF, NLF, GQL, CFL, CECI, DPIso, Steady} }

// DefaultGQLRounds is the default iteration count k of GraphQL's global
// refinement.
const DefaultGQLRounds = 2

// DefaultDPIsoPasses is the default number of alternating refinement
// passes in DP-iso, following the original paper.
const DefaultDPIsoPasses = 3

// Options parameterises one filtering run. The zero value is an
// untraced run with every method at its default parameters.
type Options struct {
	// Trace, when non-nil, receives the method's internal stages
	// (single-stage methods record one entry).
	Trace *StageTrace
	// GQLRounds is GraphQL's global-refinement iteration count
	// (≤ 0 = DefaultGQLRounds) and GQLRadius its local-pruning profile
	// radius (≤ 1 = the standard one-hop profile).
	GQLRounds, GQLRadius int
	// DPIsoPasses is DP-iso's refinement pass count
	// (≤ 0 = DefaultDPIsoPasses).
	DPIsoPasses int
}

// Run executes method m at the zero Options and returns the candidate
// sets, sorted per query vertex. An error is returned for invalid input
// (empty or disconnected query).
func Run(m Method, q, g *graph.Graph) ([][]uint32, error) {
	return RunOpts(m, q, g, Options{})
}

// RunOpts is the filtering entry point: it executes method m under o on
// the caller's goroutine and returns the candidate sets.
func RunOpts(m Method, q, g *graph.Graph, o Options) ([][]uint32, error) {
	if q.NumVertices() == 0 {
		return nil, fmt.Errorf("filter: empty query graph")
	}
	if !q.IsConnected() {
		return nil, fmt.Errorf("filter: query graph must be connected")
	}
	if _, ok := methodNames[m]; !ok {
		return nil, fmt.Errorf("filter: unknown method %v", m)
	}
	return run(m, q, g, o), nil
}

// RunLDF computes the LDF candidate sets. Unlike Run it accepts any
// query, connected or not.
func RunLDF(q, g *graph.Graph) [][]uint32 {
	return run(LDF, q, g, Options{})
}

// RunLabelOnly computes label-only candidate sets: C(u) = {v : L(v) =
// L(u)} with no degree or structural pruning. This is the only sound
// filter for subgraph *homomorphisms*, which may collapse distinct query
// neighbors onto one data vertex (so even the degree condition of LDF
// does not hold).
func RunLabelOnly(q, g *graph.Graph) [][]uint32 {
	out := make([][]uint32, q.NumVertices())
	for u := 0; u < q.NumVertices(); u++ {
		out[u] = append([]uint32(nil), g.VerticesWithLabel(q.Label(graph.Vertex(u)))...)
	}
	return out
}

// run dispatches a known method over a validated (or, for RunLDF,
// deliberately unvalidated) query.
func run(m Method, q, g *graph.Graph, o Options) [][]uint32 {
	s := newState(q, g, m)
	tr := o.Trace
	start := time.Now()
	switch m {
	case LDF:
		s.run(scanAll(q, false))
		tr.add("ldf", start, s.cand)
	case NLF:
		s.run(scanAll(q, true))
		tr.add("nlf", start, s.cand)
	case GQL:
		rounds := o.GQLRounds
		if rounds <= 0 {
			rounds = DefaultGQLRounds
		}
		s.runGraphQL(rounds, o.GQLRadius, tr)
	case CFL:
		s.runCFL(tr)
	case CECI:
		s.runCECI(tr)
	case DPIso:
		passes := o.DPIsoPasses
		if passes <= 0 {
			passes = DefaultDPIsoPasses
		}
		s.runDPIso(passes, tr)
	case Steady:
		// Start from NLF candidates and iterate Filtering Rule 3.1 over
		// every directed query edge until no candidate set changes: the
		// steady state of Observation 3.1 (Figure 8's STEADY baseline).
		s.run(scanAll(q, true))
		sweep := make([]op, q.NumVertices())
		for u := range sweep {
			sweep[u] = op{kind: opPrune, u: graph.Vertex(u), src: q.Neighbors(graph.Vertex(u))}
		}
		for s.run(sweep) {
		}
		tr.add("fixpoint", start, s.cand)
	}
	out := s.result()
	s.release()
	return out
}

// MeanCandidates returns (1/|V(q)|) * sum |C(u)|, the paper's
// candidate-count metric for Figure 8.
func MeanCandidates(cand [][]uint32) float64 {
	if len(cand) == 0 {
		return 0
	}
	n := 0
	for _, c := range cand {
		n += len(c)
	}
	return float64(n) / float64(len(cand))
}

// AnyEmpty reports whether some candidate set is empty, in which case the
// query has no matches.
func AnyEmpty(cand [][]uint32) bool {
	for _, c := range cand {
		if len(c) == 0 {
			return true
		}
	}
	return false
}
