package filter

import (
	"math/rand"
	"testing"

	"subgraphmatching/internal/graph"
	"subgraphmatching/internal/testutil"
)

// decodeFuzzGraph grows a small labeled data graph from raw fuzz bytes:
// the first two bytes size the vertex and label sets, the rest are
// consumed pairwise as edges (self-loops skipped, duplicates deduped by
// the builder).
func decodeFuzzGraph(data []byte) *graph.Graph {
	if len(data) < 4 {
		return nil
	}
	n := 3 + int(data[0])%8
	numLabels := 1 + int(data[1])%3
	b := graph.NewBuilder(n, len(data)/2)
	for i := 0; i < n; i++ {
		var l graph.Label
		if 2+i < len(data) {
			l = graph.Label(data[2+i]) % graph.Label(numLabels)
		}
		b.AddVertex(l)
	}
	for i := 2 + n; i+1 < len(data); i += 2 {
		u := graph.Vertex(data[i]) % graph.Vertex(n)
		v := graph.Vertex(data[i+1]) % graph.Vertex(n)
		if u != v {
			b.AddEdge(u, v)
		}
	}
	g, err := b.Build()
	if err != nil {
		return nil
	}
	return g
}

// FuzzFilterSoundness is the no-false-negative invariant of Section 3.1
// under fuzzed inputs: for every filtering method, every ground-truth
// embedding must survive filtering — each mapped data vertex M(u) stays
// in the candidate set C(u). A filter
// that drops a matched vertex silently loses embeddings downstream,
// which no amount of enumeration testing on fixed fixtures would
// attribute back to the filter.
func FuzzFilterSoundness(f *testing.F) {
	f.Add([]byte{1, 2, 0, 1, 0, 1, 1, 0, 1, 2, 2, 3, 3, 0, 0, 2}, int64(1), uint8(3))
	f.Add([]byte{7, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 0}, int64(7), uint8(4))
	f.Add([]byte{5, 3, 2, 1, 0, 2, 1, 0, 1, 0, 2, 1, 3, 2, 4, 3, 0, 4, 1, 3}, int64(42), uint8(2))
	f.Fuzz(func(t *testing.T, data []byte, seed int64, qsize uint8) {
		g := decodeFuzzGraph(data)
		if g == nil || g.NumEdges() == 0 {
			t.Skip()
		}
		rng := rand.New(rand.NewSource(seed))
		q := testutil.RandomConnectedQuery(rng, g, 2+int(qsize)%3)
		if q == nil {
			t.Skip()
		}
		truth := testutil.BruteForceMatches(q, g)
		if len(truth) == 0 {
			t.Skip()
		}
		for _, m := range Methods() {
			cand, err := Run(m, q, g)
			if err != nil {
				t.Fatalf("%v: Run: %v", m, err)
			}
			for _, emb := range truth {
				for u, v := range emb {
					if !containsVertex(cand[u], uint32(v)) {
						t.Fatalf("%v: C(u%d)=%v drops matched vertex %d (embedding %v)",
							m, u, cand[u], v, emb)
					}
				}
			}
		}
	})
}

// containsVertex binary-searches a sorted candidate set.
func containsVertex(c []uint32, v uint32) bool {
	lo, hi := 0, len(c)
	for lo < hi {
		mid := (lo + hi) / 2
		if c[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(c) && c[lo] == v
}
