package main

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"subgraphmatching/internal/core"
	"subgraphmatching/internal/graph"
	"subgraphmatching/internal/querygen"
	"subgraphmatching/internal/rmat"
)

// graphShape parameterizes the data graph. The benchmark always runs
// g20; tests substitute a smaller shape to stay fast.
type graphShape struct {
	Vertices, Edges, Labels int
}

// g20 is the benchmark's data graph: R-MAT with the paper's quadrant
// probabilities, average degree 20 and a maximum degree near 1000.
var g20 = graphShape{Vertices: 20000, Edges: 200000, Labels: 20}

var querySizes = []int{8, 12, 16}

// corpusSeed seeds the data graph and the query lists. It is fixed:
// -seed permutes the order of the requests, never the requests
// themselves, so a round is the same work on every seed.
const corpusSeed = 1

// query is one generated query graph: the text the daemon receives and
// the parsed form the oracle and the layer trace work on.
type query struct {
	Text  string
	G     *graph.Graph
	Class string // e.g. "12-sparse"
}

func genGraph(shape graphShape, seed int64) (*graph.Graph, []byte, error) {
	g, err := rmat.Generate(rmat.Config{
		NumVertices: shape.Vertices, NumEdges: shape.Edges, NumLabels: shape.Labels, Seed: seed,
	})
	if err != nil {
		return nil, nil, err
	}
	var buf bytes.Buffer
	if err := graph.Write(&buf, g); err != nil {
		return nil, nil, err
	}
	return g, buf.Bytes(), nil
}

// classQueries extracts n queries of one size and density from g. The
// class seed depends only on (seed, size, density), and querygen draws
// queries one after another from one stream, so a longer list extends a
// shorter one.
func classQueries(g *graph.Graph, seed int64, size int, d querygen.Density, n int) ([]query, error) {
	gs, err := querygen.Generate(g, querygen.Config{
		NumVertices: size, Count: n, Density: d, Seed: seed*1000 + int64(size)*2 + int64(d),
	})
	if err != nil {
		return nil, err
	}
	out := make([]query, len(gs))
	for i, q := range gs {
		var buf bytes.Buffer
		if err := graph.Write(&buf, q); err != nil {
			return nil, err
		}
		out[i] = query{Text: buf.String(), G: q, Class: fmt.Sprintf("%d-%v", size, d)}
	}
	return out, nil
}

// dedupe drops queries whose fingerprint was already seen. The
// fingerprint is the daemon's plan-cache key, so two queries with one
// fingerprint would be one cache entry and the working-set sizes the
// workloads state would be wrong.
func dedupe(qs []query) []query {
	seen := make(map[graph.Fingerprint]bool, len(qs))
	out := qs[:0:0]
	for _, q := range qs {
		fp := graph.FingerprintOf(q.G)
		if !seen[fp] {
			seen[fp] = true
			out = append(out, q)
		}
	}
	return out
}

// mixedQueries returns n distinct queries cycling through the six
// classes (sizes 8/12/16, dense and sparse), so any prefix keeps the
// class mix.
func mixedQueries(g *graph.Graph, seed int64, n int) ([]query, error) {
	// A few spares per class cover fingerprint duplicates (small dense
	// queries repeat).
	per := (n+5)/6 + 8
	var classes [][]query
	for _, size := range querySizes {
		for _, d := range []querygen.Density{querygen.Dense, querygen.Sparse} {
			qs, err := classQueries(g, seed, size, d, per)
			if err != nil {
				return nil, err
			}
			classes = append(classes, qs)
		}
	}
	var all []query
	for i := 0; i < per; i++ {
		for _, c := range classes {
			all = append(all, c[i])
		}
	}
	all = dedupe(all)
	if len(all) < n {
		return nil, fmt.Errorf("only %d distinct queries of %d wanted", len(all), n)
	}
	return all[:n], nil
}

// heavyQueries returns perSize sparse queries of each size whose
// sequential enumeration reaches limit embeddings, so every request of
// the enumeration workloads does the same capped amount of work. Their
// oracle entries follow from the selection: limit embeddings exist.
func heavyQueries(g *graph.Graph, seed int64, perSize int, limit uint64) ([]query, []oracleEntry, error) {
	var out []query
	for _, size := range querySizes {
		cands, err := classQueries(g, seed, size, querygen.Sparse, 2*perSize)
		if err != nil {
			return nil, nil, err
		}
		cands = dedupe(cands)
		capped := make([]bool, len(cands))
		if err := parallelFor(len(cands), func(i int) error {
			q := cands[i].G
			res, err := core.Match(q, g, core.PresetConfig(core.Optimized, q, g), core.Limits{MaxEmbeddings: limit})
			if err != nil {
				return err
			}
			capped[i] = res.LimitHit
			return nil
		}); err != nil {
			return nil, nil, err
		}
		kept := 0
		for i, q := range cands {
			if capped[i] && kept < perSize {
				out = append(out, q)
				kept++
			}
		}
		if kept < perSize {
			return nil, nil, fmt.Errorf("only %d of %d sparse %d-vertex queries reach %d embeddings", kept, perSize, size, limit)
		}
	}
	oracle := make([]oracleEntry, len(out))
	for i := range oracle {
		oracle[i] = oracleEntry{Count: limit}
	}
	return out, oracle, nil
}

// oracleEntry is what the harness knows about a query's answer: Count
// embeddings exist; Exact says there are no more.
type oracleEntry struct {
	Count uint64
	Exact bool
}

// expect is the embedding count a request with the given limit must
// report.
func (o oracleEntry) expect(limit uint64) (uint64, error) {
	if o.Count >= limit {
		return limit, nil
	}
	if !o.Exact {
		return 0, fmt.Errorf("oracle knows only %d embeddings, request asks for %d", o.Count, limit)
	}
	return o.Count, nil
}

// oracleTimeLimit bounds one independent-engine cross-check.
const oracleTimeLimit = 60 * time.Second

// vf2Checks is how many uncapped queries classic VF2 recounts. On g20 it
// needs 0.05 to 5 s per 8-vertex query (the Glasgow solver 30 ms), so it
// gets the first few of the smallest class and Glasgow gets them all.
const vf2Checks = 4

// buildOracle computes each query's answer in-process, sequentially
// and under the preset the daemon will use, up to limit. Queries that
// stay under the cap are counted in full and cross-checked against
// engines that share no code with that pipeline: all of them against
// the Glasgow constraint solver, the first vf2Checks 8-vertex ones
// against classic VF2 as well.
func buildOracle(g *graph.Graph, qs []query, limit uint64) ([]oracleEntry, error) {
	out := make([]oracleEntry, len(qs))
	err := parallelFor(len(qs), func(i int) error {
		q := qs[i].G
		res, err := core.Match(q, g, core.PresetConfig(core.Optimized, q, g), core.Limits{MaxEmbeddings: limit})
		if err != nil {
			return fmt.Errorf("oracle: query %d: %w", i, err)
		}
		out[i] = oracleEntry{Count: res.Embeddings, Exact: !res.LimitHit}
		if res.LimitHit {
			return nil
		}
		return crossCheck(g, qs[i], i, core.Config{UseGlasgow: true}, res.Embeddings)
	})
	if err != nil {
		return nil, err
	}
	var vf2 []int
	for i, q := range qs {
		if out[i].Exact && q.G.NumVertices() == querySizes[0] && len(vf2) < vf2Checks {
			vf2 = append(vf2, i)
		}
	}
	err = parallelFor(len(vf2), func(k int) error {
		i := vf2[k]
		return crossCheck(g, qs[i], i, core.Config{UseVF2: true}, out[i].Count)
	})
	return out, err
}

// crossCheck recounts query i in full with the engine cfg selects and
// compares with want.
func crossCheck(g *graph.Graph, q query, i int, cfg core.Config, want uint64) error {
	ref, err := core.Match(q.G, g, cfg, core.Limits{TimeLimit: oracleTimeLimit})
	if err != nil {
		return fmt.Errorf("oracle: query %d: %w", i, err)
	}
	if ref.TimedOut {
		return fmt.Errorf("oracle: query %d: independent engine timed out after %v", i, oracleTimeLimit)
	}
	if ref.Embeddings != want {
		return fmt.Errorf("oracle: query %d (%s): Optimized counts %d embeddings, independent engine %d",
			i, q.Class, want, ref.Embeddings)
	}
	return nil
}

// validEmbedding reports whether m maps q into g preserving labels,
// injectively, and preserving every query edge.
func validEmbedding(q, g *graph.Graph, m []uint32) error {
	if len(m) != q.NumVertices() {
		return fmt.Errorf("embedding has %d vertices, query %d", len(m), q.NumVertices())
	}
	for u, v := range m {
		if int(v) >= g.NumVertices() {
			return fmt.Errorf("vertex %d out of range", v)
		}
		if q.Label(graph.Vertex(u)) != g.Label(v) {
			return fmt.Errorf("query vertex %d (label %d) mapped to %d (label %d)", u, q.Label(graph.Vertex(u)), v, g.Label(v))
		}
		for u2 := 0; u2 < u; u2++ {
			if m[u2] == v {
				return fmt.Errorf("query vertices %d and %d both mapped to %d", u2, u, v)
			}
		}
	}
	var bad error
	q.EachEdge(func(a, b graph.Vertex) bool {
		if !g.HasEdge(m[a], m[b]) {
			bad = fmt.Errorf("query edge %d-%d mapped to non-edge %d-%d", a, b, m[a], m[b])
		}
		return bad == nil
	})
	return bad
}

// parallelFor runs fn(0..n-1) on defaultConns() goroutines and returns the
// first error. Preparation only: nothing timed runs through it.
func parallelFor(n int, fn func(i int) error) error {
	var (
		next  atomic.Int64
		wg    sync.WaitGroup
		once  sync.Once
		first error
	)
	for w := 0; w < defaultConns(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := fn(i); err != nil {
					once.Do(func() { first = err })
					next.Store(int64(n))
					return
				}
			}
		}()
	}
	wg.Wait()
	return first
}
