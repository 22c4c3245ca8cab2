package filter

import (
	"time"

	"subgraphmatching/internal/graph"
)

// runCECI implements CECI's filtering (paper Section 3.1.1, Example 3.3):
//
//  1. Construction and filtering along the BFS traversal order δ: C(u) is
//     generated from C(u.p) with Generation Rule 3.1; whenever C(u) is
//     constructed or pruned against a backward set C(u.p) or C(u_n), the
//     backward set is pruned symmetrically (candidates with no neighbor
//     in C(u) are ruled out).
//  2. Refinement along the reverse of δ, pruning C(u) against its tree
//     children only — the source of CECI's weaker pruning power in
//     Figure 8.
//
// Trace stages: "construct" (along δ with symmetric pruning) and
// "refine" (reverse-δ against tree children).
func (s *state) runCECI(tr *StageTrace) {
	stageStart := time.Now()
	q := s.q
	t := graph.NewBFSTree(q, Root(CECI, q, s.g, s.fr.Workers()))
	pos := make([]int, q.NumVertices())
	for i, u := range t.Order {
		pos[u] = i
	}

	// Phase 1: construction along δ with symmetric backward pruning.
	var ops []op
	for i, u := range t.Order {
		if i == 0 {
			ops = append(ops, op{kind: opScan, u: u, nlf: true})
			continue
		}
		p := t.Parent[u]
		ops = append(ops,
			op{kind: opGen, u: u, src: []graph.Vertex{p}},
			op{kind: opPrune, u: p, src: []graph.Vertex{u}}) // rule out parents' candidates with no child candidate
		for _, un := range q.Neighbors(u) {
			if pos[un] < i && un != p { // backward non-tree edge
				ops = append(ops,
					op{kind: opPrune, u: u, src: []graph.Vertex{un}},
					op{kind: opPrune, u: un, src: []graph.Vertex{u}})
			}
		}
	}
	s.run(ops)
	stageStart = tr.add("construct", stageStart, s.cand)

	// Phase 2: reverse-δ refinement against tree children only.
	ops = ops[:0]
	children := t.Children()
	for i := len(t.Order) - 1; i >= 0; i-- {
		u := t.Order[i]
		if len(children[u]) > 0 {
			ops = append(ops, op{kind: opPrune, u: u, src: children[u]})
		}
	}
	s.run(ops)
	tr.add("refine", stageStart, s.cand)
}
