package filter

import (
	"sort"

	"subgraphmatching/internal/graph"
)

// profiler computes r-hop neighborhood label profiles. Because a
// subgraph isomorphism cannot stretch distances (a vertex within
// distance d of u maps to within distance d of f(u)), the label multiset
// within distance <= d of u must embed into that of v for *every*
// d <= r. The profile therefore keeps cumulative per-distance counts,
// which makes radius r+1 at least as strong a filter as radius r.
type profiler struct {
	radius  int
	visited []int32 // BFS epoch marks, indexed by vertex
	epoch   int32
	queue   []graph.Vertex
	depth   []int32
	// counts[d][l] is the number of vertices with label l within
	// distance <= d.
	counts []map[graph.Label]int32
}

func newProfiler(g *graph.Graph, radius int) *profiler {
	p := &profiler{
		radius:  radius,
		visited: make([]int32, g.NumVertices()),
		counts:  make([]map[graph.Label]int32, radius+1),
	}
	for d := range p.counts {
		p.counts[d] = map[graph.Label]int32{}
	}
	return p
}

// labelProfile holds, per distance 0..r, the sorted cumulative label
// counts.
type labelProfile [][]labelCount

type labelCount struct {
	label graph.Label
	count int32
}

// profile returns the cumulative per-distance label profile of u in g.
func (p *profiler) profile(g *graph.Graph, u graph.Vertex) labelProfile {
	p.collect(g, u)
	out := make(labelProfile, p.radius+1)
	for d := 0; d <= p.radius; d++ {
		ring := make([]labelCount, 0, len(p.counts[d]))
		for l, c := range p.counts[d] {
			ring = append(ring, labelCount{l, c})
		}
		sort.Slice(ring, func(i, j int) bool { return ring[i].label < ring[j].label })
		out[d] = ring
	}
	return out
}

// covers reports whether v's profile covers want at every distance.
func (p *profiler) covers(g *graph.Graph, v graph.Vertex, want labelProfile) bool {
	p.collect(g, v)
	for d := 0; d <= p.radius && d < len(want); d++ {
		for _, lc := range want[d] {
			if p.counts[d][lc.label] < lc.count {
				return false
			}
		}
	}
	return true
}

// collect BFS-walks up to radius hops from u, tallying cumulative label
// counts per distance (each vertex counted once, at its BFS distance and
// every larger distance).
func (p *profiler) collect(g *graph.Graph, u graph.Vertex) {
	p.epoch++
	for d := range p.counts {
		for k := range p.counts[d] {
			delete(p.counts[d], k)
		}
	}
	p.queue = p.queue[:0]
	p.depth = p.depth[:0]
	p.queue = append(p.queue, u)
	p.depth = append(p.depth, 0)
	p.visited[u] = p.epoch
	for head := 0; head < len(p.queue); head++ {
		v := p.queue[head]
		d := p.depth[head]
		p.counts[d][g.Label(v)]++
		if int(d) == p.radius {
			continue
		}
		for _, w := range g.Neighbors(v) {
			if p.visited[w] != p.epoch {
				p.visited[w] = p.epoch
				p.queue = append(p.queue, w)
				p.depth = append(p.depth, d+1)
			}
		}
	}
	// Make the counts cumulative: within <= d includes every smaller
	// ring.
	for d := 1; d <= p.radius; d++ {
		for l, c := range p.counts[d-1] {
			p.counts[d][l] += c
		}
	}
}
