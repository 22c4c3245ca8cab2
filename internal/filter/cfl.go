package filter

import (
	"time"

	"subgraphmatching/internal/graph"
)

// runCFL implements CFL's filtering (paper Section 3.1.1, Example 3.2):
//
//  1. Generation, top-down along a BFS tree q_t of q: C(u) is generated
//     from C(u.p) with Generation Rule 3.1 (each candidate must also pass
//     LDF and NLF), then pruned bidirectionally against every
//     already-generated neighbor via non-tree edges (Filtering Rule 3.1).
//  2. Refinement, bottom-up: C(u) is pruned against every neighbor at a
//     deeper BFS level.
//
// The compressed path index itself (edges between candidates of tree
// edges) is materialized separately by candspace.Build.
//
// Trace stages: "generate" (top-down with backward pruning) and
// "refine" (bottom-up).
func (s *state) runCFL(tr *StageTrace) {
	stageStart := time.Now()
	q := s.q
	root := Root(CFL, q, s.g)
	t := graph.NewBFSTree(q, root)

	// Phase 1: top-down generation with backward pruning.
	var ops []op
	visited := make([]bool, q.NumVertices())
	for _, u := range t.Order {
		if u == root {
			ops = append(ops, op{kind: opScan, u: u, nlf: true})
		} else {
			ops = append(ops, op{kind: opGen, u: u, src: []graph.Vertex{t.Parent[u]}})
			for _, un := range q.Neighbors(u) {
				if visited[un] && un != t.Parent[u] {
					ops = append(ops,
						op{kind: opPrune, u: u, src: []graph.Vertex{un}},
						op{kind: opPrune, u: un, src: []graph.Vertex{u}})
				}
			}
		}
		visited[u] = true
	}
	s.run(ops)
	stageStart = tr.add("generate", stageStart, s.cand)

	// Phase 2: bottom-up refinement. Each vertex's prunes against its
	// deeper neighbors are one op, which reads only strictly deeper
	// (earlier-refined) sets.
	ops = ops[:0]
	for i := len(t.Order) - 1; i >= 0; i-- {
		u := t.Order[i]
		var deeper []graph.Vertex
		for _, un := range q.Neighbors(u) {
			if t.Depth[un] > t.Depth[u] {
				deeper = append(deeper, un)
			}
		}
		if len(deeper) > 0 {
			ops = append(ops, op{kind: opPrune, u: u, src: deeper})
		}
	}
	s.run(ops)
	tr.add("refine", stageStart, s.cand)
}
