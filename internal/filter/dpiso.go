package filter

import (
	"fmt"
	"time"

	"subgraphmatching/internal/graph"
)

// runDPIso implements DP-iso's filtering (paper Section 3.1.1, Example
// 3.4): every C(u) is initialized with LDF, then refined in `passes`
// alternating sweeps. Odd-numbered sweeps walk the reverse of the BFS
// order δ and prune C(u) against its forward neighbors (the first such
// sweep also applies NLF); even-numbered sweeps walk δ and prune against
// backward neighbors. The original paper uses passes = 3.
//
// The root is chosen from the LDF sets just built — the argmin
// Root(DPIso, …) computes, without scanning the pools a second time.
//
// Trace stages: "init" for the LDF initialization, then one "pass-<k>"
// per sweep.
func (s *state) runDPIso(passes int, tr *StageTrace) {
	stageStart := time.Now()
	q := s.q
	s.run(scanAll(q, false))
	scores := make([]float64, q.NumVertices())
	for u := range scores {
		scores[u] = float64(len(s.cand[u])) / float64(q.Degree(graph.Vertex(u)))
	}
	t := graph.NewBFSTree(q, argminRoot(scores))
	stageStart = tr.add("init", stageStart, s.cand)

	pos := make([]int, q.NumVertices())
	for i, u := range t.Order {
		pos[u] = i
	}
	// sweep emits one prune per vertex of order against its neighbors
	// on the `forward` side of δ.
	sweep := func(order []graph.Vertex, forward, nlf bool) []op {
		var ops []op
		for _, u := range order {
			var src []graph.Vertex
			for _, un := range q.Neighbors(u) {
				if (pos[un] > pos[u]) == forward {
					src = append(src, un)
				}
			}
			if nlf || len(src) > 0 {
				ops = append(ops, op{kind: opPrune, u: u, src: src, nlf: nlf})
			}
		}
		return ops
	}
	reverse := make([]graph.Vertex, len(t.Order))
	for i, u := range t.Order {
		reverse[len(reverse)-1-i] = u
	}
	for pass := 0; pass < passes; pass++ {
		if pass%2 == 0 {
			s.run(sweep(reverse, true, pass == 0))
		} else {
			s.run(sweep(t.Order, false, false))
		}
		stageStart = tr.add(fmt.Sprintf("pass-%d", pass+1), stageStart, s.cand)
	}
}
