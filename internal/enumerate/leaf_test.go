package enumerate

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"subgraphmatching/internal/filter"
	"subgraphmatching/internal/graph"
	"subgraphmatching/internal/intersect"
	"subgraphmatching/internal/testutil"
)

// The last level of the search is finished by leafLevel instead of one
// more recursive call per embedding. These tests hold that loop to what
// the recursion did: the digests below were recorded from the engine of
// commit 1c57d51, the last one whose leaves were recursive calls.

// leafQuery is one query of the digest fixture, with the symmetry
// classes the symmetry-breaking variants run under (nil: none).
type leafQuery struct {
	name    string
	q       *graph.Graph
	classes [][]graph.Vertex
}

// leafFixture is a two-label data graph dense enough that every query
// below has thousands of embeddings, injectivity conflicts and
// symmetry skips at its last level, plus queries of 1, 2, 4 and 6
// vertices.
func leafFixture(t testing.TB) (*graph.Graph, []leafQuery) {
	t.Helper()
	rng := rand.New(rand.NewSource(43))
	g := testutil.RandomGraph(rng, 64, 500, 2)
	rand6 := testutil.RandomConnectedQuery(rng, g, 6)
	if rand6 == nil {
		t.Fatal("fixture: no 6-vertex query")
	}
	L := func(l ...graph.Label) []graph.Label { return l }
	E := func(e ...[2]graph.Vertex) [][2]graph.Vertex { return e }
	return g, []leafQuery{
		{"v1", graph.MustFromEdges(L(0), nil), nil},
		{"edge", graph.MustFromEdges(L(0, 0), E([2]graph.Vertex{0, 1})), [][]graph.Vertex{{0, 1}}},
		{"star4", graph.MustFromEdges(L(0, 0, 0, 0), E([2]graph.Vertex{0, 1}, [2]graph.Vertex{0, 2}, [2]graph.Vertex{0, 3})),
			[][]graph.Vertex{{1, 2, 3}}},
		{"tritail", graph.MustFromEdges(L(0, 0, 0, 1), E([2]graph.Vertex{0, 1}, [2]graph.Vertex{1, 2}, [2]graph.Vertex{0, 2}, [2]graph.Vertex{2, 3})),
			[][]graph.Vertex{{0, 1}}},
		{"rand6", rand6, nil},
	}
}

// leafConfig is one (recursion, local-candidate method) point.
type leafConfig struct {
	name string
	opts Options
}

func leafConfigs() []leafConfig {
	var out []leafConfig
	locals := []struct {
		name string
		opts Options
	}{
		{"direct", Options{Local: Direct}},
		{"direct+vf2pp", Options{Local: Direct, VF2PPRules: true}},
		{"scan", Options{Local: Scan}},
		{"tree-edge", Options{Local: TreeEdge}},
		{"intersect", Options{Local: Intersect}},
		{"intersect-block", Options{Local: Intersect, Kernel: intersect.PolicyBlock}},
	}
	for _, l := range locals {
		out = append(out, leafConfig{"plain/" + l.name, l.opts})
		fs := l.opts
		fs.FailingSets = true
		out = append(out, leafConfig{"fs/" + l.name, fs})
		if l.opts.Local == Intersect {
			ad := l.opts
			ad.Adaptive = true
			out = append(out, leafConfig{"adaptive/" + l.name, ad})
			ad.FailingSets = true
			out = append(out, leafConfig{"adaptive+fs/" + l.name, ad})
		}
	}
	return out
}

// leafVariants are the semantics each config runs under; sym applies to
// the queries that have classes, hom skips the configs it is
// incompatible with.
var leafVariants = []string{"iso", "sym", "hom"}

func (c leafConfig) variant(v string, lq leafQuery) (Options, bool) {
	o := c.opts
	switch v {
	case "sym":
		if lq.classes == nil {
			return o, false
		}
		o.SymmetryClasses = lq.classes
	case "hom":
		if o.VF2PPRules {
			return o, false
		}
		o.Homomorphism = true
	}
	return o, true
}

// leafDigest is what one config produced over every query of the
// fixture: FNV-64a of the sorted embeddings and of the full per-depth
// profile (Nodes, Candidates, Extended, Conflicts, SymmetrySkips,
// FailingSetSkips, EmptyLC), and the summed Stats counters.
type leafDigest struct {
	emb, prof         uint64
	nodes, embeddings uint64
}

// parentLeafDigests holds, per "config/variant", the run of commit
// 1c57d51's engine over leafFixture — except fs/direct+vf2pp/iso, which
// is plain/direct+vf2pp/iso's: failing sets prune nothing under VF2++'s
// cutoff, and that engine's 78240 nodes came from unsound pruning.
var parentLeafDigests = map[string]leafDigest{
	"plain/direct/iso":                {0x7987845d8e398856, 0x8b1227208e915ab2, 81445, 47223},
	"plain/direct/sym":                {0x5b9dd79c761b7870, 0x55b41758fd95ab75, 4330, 3007},
	"plain/direct/hom":                {0x04ada85d59542a2b, 0x94d2e589b82f943d, 169963, 116683},
	"fs/direct/iso":                   {0x7987845d8e398856, 0xc9832668cb41f675, 78240, 47223},
	"fs/direct/sym":                   {0x5b9dd79c761b7870, 0x55b41758fd95ab75, 4330, 3007},
	"fs/direct/hom":                   {0x04ada85d59542a2b, 0xc5a522f7a84082a7, 167235, 116683},
	"plain/direct+vf2pp/iso":          {0x7987845d8e398856, 0x8b1227208e915ab2, 81445, 47223},
	"plain/direct+vf2pp/sym":          {0x5b9dd79c761b7870, 0x55b41758fd95ab75, 4330, 3007},
	"fs/direct+vf2pp/iso":             {0x7987845d8e398856, 0x8b1227208e915ab2, 81445, 47223},
	"fs/direct+vf2pp/sym":             {0x5b9dd79c761b7870, 0x55b41758fd95ab75, 4330, 3007},
	"plain/scan/iso":                  {0x7987845d8e398856, 0x8b1227208e915ab2, 81445, 47223},
	"plain/scan/sym":                  {0x5b9dd79c761b7870, 0x55b41758fd95ab75, 4330, 3007},
	"plain/scan/hom":                  {0x04ada85d59542a2b, 0x94d2e589b82f943d, 169963, 116683},
	"fs/scan/iso":                     {0x7987845d8e398856, 0xc9832668cb41f675, 78240, 47223},
	"fs/scan/sym":                     {0x5b9dd79c761b7870, 0x55b41758fd95ab75, 4330, 3007},
	"fs/scan/hom":                     {0x04ada85d59542a2b, 0xc5a522f7a84082a7, 167235, 116683},
	"plain/tree-edge/iso":             {0x7987845d8e398856, 0x8b1227208e915ab2, 81445, 47223},
	"plain/tree-edge/sym":             {0x5b9dd79c761b7870, 0x55b41758fd95ab75, 4330, 3007},
	"plain/tree-edge/hom":             {0x04ada85d59542a2b, 0x94d2e589b82f943d, 169963, 116683},
	"fs/tree-edge/iso":                {0x7987845d8e398856, 0xc9832668cb41f675, 78240, 47223},
	"fs/tree-edge/sym":                {0x5b9dd79c761b7870, 0x55b41758fd95ab75, 4330, 3007},
	"fs/tree-edge/hom":                {0x04ada85d59542a2b, 0xc5a522f7a84082a7, 167235, 116683},
	"plain/intersect/iso":             {0x7987845d8e398856, 0x8b1227208e915ab2, 81445, 47223},
	"plain/intersect/sym":             {0x5b9dd79c761b7870, 0x55b41758fd95ab75, 4330, 3007},
	"plain/intersect/hom":             {0x04ada85d59542a2b, 0x94d2e589b82f943d, 169963, 116683},
	"fs/intersect/iso":                {0x7987845d8e398856, 0xc9832668cb41f675, 78240, 47223},
	"fs/intersect/sym":                {0x5b9dd79c761b7870, 0x55b41758fd95ab75, 4330, 3007},
	"fs/intersect/hom":                {0x04ada85d59542a2b, 0xc5a522f7a84082a7, 167235, 116683},
	"adaptive/intersect/iso":          {0x7987845d8e398856, 0xabc23e62fdd6daff, 74597, 47223},
	"adaptive/intersect/sym":          {0x5b9dd79c761b7870, 0x55b41758fd95ab75, 4330, 3007},
	"adaptive/intersect/hom":          {0x04ada85d59542a2b, 0x0778f55aee4c71ff, 159998, 116683},
	"adaptive+fs/intersect/iso":       {0x7987845d8e398856, 0xabc23e62fdd6daff, 74597, 47223},
	"adaptive+fs/intersect/sym":       {0x5b9dd79c761b7870, 0x55b41758fd95ab75, 4330, 3007},
	"adaptive+fs/intersect/hom":       {0x04ada85d59542a2b, 0x0778f55aee4c71ff, 159998, 116683},
	"plain/intersect-block/iso":       {0x7987845d8e398856, 0x8b1227208e915ab2, 81445, 47223},
	"plain/intersect-block/sym":       {0x5b9dd79c761b7870, 0x55b41758fd95ab75, 4330, 3007},
	"plain/intersect-block/hom":       {0x04ada85d59542a2b, 0x94d2e589b82f943d, 169963, 116683},
	"fs/intersect-block/iso":          {0x7987845d8e398856, 0xc9832668cb41f675, 78240, 47223},
	"fs/intersect-block/sym":          {0x5b9dd79c761b7870, 0x55b41758fd95ab75, 4330, 3007},
	"fs/intersect-block/hom":          {0x04ada85d59542a2b, 0xc5a522f7a84082a7, 167235, 116683},
	"adaptive/intersect-block/iso":    {0x7987845d8e398856, 0xabc23e62fdd6daff, 74597, 47223},
	"adaptive/intersect-block/sym":    {0x5b9dd79c761b7870, 0x55b41758fd95ab75, 4330, 3007},
	"adaptive/intersect-block/hom":    {0x04ada85d59542a2b, 0x0778f55aee4c71ff, 159998, 116683},
	"adaptive+fs/intersect-block/iso": {0x7987845d8e398856, 0xabc23e62fdd6daff, 74597, 47223},
	"adaptive+fs/intersect-block/sym": {0x5b9dd79c761b7870, 0x55b41758fd95ab75, 4330, 3007},
	"adaptive+fs/intersect-block/hom": {0x04ada85d59542a2b, 0x0778f55aee4c71ff, 159998, 116683},
}

func foldU64(h hash.Hash64, xs ...uint64) {
	var b [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(b[:], x)
		h.Write(b[:])
	}
}

// embeddingKey is m as a fixed-width big-endian string, so string order
// is numeric order position by position.
func embeddingKey(m []uint32) string {
	b := make([]byte, 4*len(m))
	for i, v := range m {
		binary.BigEndian.PutUint32(b[4*i:], v)
	}
	return string(b)
}

// sortedEmbeddings runs f under opts and returns the embeddings as
// embeddingKeys in sorted order.
func sortedEmbeddings(t testing.TB, f *fixture, opts Options) ([]string, *Stats) {
	t.Helper()
	var embs []string
	opts.OnRun = eachEmbedding(func(m []uint32) bool {
		embs = append(embs, embeddingKey(m))
		return true
	})
	st := f.run(t, opts)
	sort.Strings(embs)
	return embs, st
}

func TestLeafLevelMatchesParentDigests(t *testing.T) {
	g, queries := leafFixture(t)
	fixtures := make([]*fixture, len(queries))
	for i, lq := range queries {
		fixtures[i] = newFixture(t, lq.q, g, filter.LDF)
	}
	for _, c := range leafConfigs() {
		for _, v := range leafVariants {
			name := c.name + "/" + v
			embH, profH := fnv.New64a(), fnv.New64a()
			var got leafDigest
			var perQuery []string
			for i, lq := range queries {
				opts, ok := c.variant(v, lq)
				if !ok {
					continue
				}
				opts.Profile = true
				embs, st := sortedEmbeddings(t, fixtures[i], opts)
				for _, e := range embs {
					embH.Write([]byte(e))
				}
				if uint64(len(embs)) != st.Embeddings {
					t.Errorf("%s %s: %d embeddings handed over, Stats.Embeddings %d", name, lq.name, len(embs), st.Embeddings)
				}
				p := st.Profile
				for _, s := range [][]uint64{p.Nodes, p.Candidates, p.Extended, p.Conflicts, p.SymmetrySkips, p.FailingSetSkips, p.EmptyLC} {
					foldU64(profH, s...)
				}
				got.nodes += st.Nodes
				got.embeddings += st.Embeddings
				perQuery = append(perQuery, fmt.Sprintf("%s: %d nodes %d embeddings", lq.name, st.Nodes, st.Embeddings))

				// Profiling must not change what the search does.
				opts.Profile = false
				if plain := fixtures[i].run(t, opts); plain.Nodes != st.Nodes || plain.Embeddings != st.Embeddings {
					t.Errorf("%s %s: unprofiled run (%d nodes, %d embeddings), profiled (%d, %d)",
						name, lq.name, plain.Nodes, plain.Embeddings, st.Nodes, st.Embeddings)
				}
			}
			if perQuery == nil {
				continue // hom with VF2++ rules: no such engine
			}
			got.emb, got.prof = embH.Sum64(), profH.Sum64()
			want, ok := parentLeafDigests[name]
			if !ok {
				t.Errorf("no parent digest recorded:\n\t%q: {%#016x, %#016x, %d, %d},", name, got.emb, got.prof, got.nodes, got.embeddings)
				continue
			}
			if got != want {
				t.Errorf("%s: got %+v, parent's engine %+v\n\t%v", name, got, want, perQuery)
			}
		}
	}
}

// TestLeafLevelEntryPoints runs the task entry point over the fixture's
// hand-made queries, under static and adaptive orders alike:
// partitioning the search by prefixes of every length — from root
// candidates down to prefixes that pin the whole embedding, which is the
// one case that still reaches the depth == n branch — yields exactly the
// embeddings of the full run, and a pinned position is not a search
// node.
func TestLeafLevelEntryPoints(t *testing.T) {
	g, queries := leafFixture(t)
	for _, lq := range queries[:4] {
		f := newFixture(t, lq.q, g, filter.LDF)
		n := lq.q.NumVertices()
		for _, c := range leafConfigs() {
			for _, v := range []string{"iso", "sym"} {
				opts, ok := c.variant(v, lq)
				if !ok {
					continue
				}
				name := lq.name + "/" + c.name + "/" + v
				want, ref := sortedEmbeddings(t, f, opts)

				var got []string
				opts.OnRun = eachEmbedding(func(m []uint32) bool {
					got = append(got, embeddingKey(m))
					return true
				})
				opts.Profile = true
				e, err := NewEngine(f.q, f.g, f.cand, f.space, f.phi, opts)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				// Listing a prefix's children is a second engine's work.
				probe, err := NewEngine(f.q, f.g, f.cand, f.space, f.phi, c.opts)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				check := func(entry string) {
					t.Helper()
					sort.Strings(got)
					if len(got) != len(want) {
						t.Errorf("%s %s: %d embeddings, full run %d", name, entry, len(got), len(want))
					} else {
						for i := range got {
							if got[i] != want[i] {
								t.Errorf("%s %s: embedding %d differs from the full run", name, entry, i)
								break
							}
						}
					}
					st := e.Stats()
					if st.Embeddings != ref.Embeddings {
						t.Errorf("%s %s: Stats.Embeddings %d, full run %d", name, entry, st.Embeddings, ref.Embeddings)
					}
					// What the pinned positions ran is in the profile too: the
					// per-depth split still sums to the totals.
					var kernels intersect.KernelStats
					for _, k := range st.Profile.Kernels {
						kernels.Add(k)
					}
					if kernels != st.Kernels || st.Profile.TotalNodes() != st.Nodes {
						t.Errorf("%s %s: profile sums to %v kernels, %d nodes; Stats has %v, %d",
							name, entry, kernels, st.Profile.TotalNodes(), st.Kernels, st.Nodes)
					}
					got = got[:0]
					e.Rearm(opts)
				}

				roots := f.cand[f.phi[0]]
				for i := range roots {
					e.RunPrefix(roots[i : i+1])
				}
				if !opts.FailingSets {
					// The root node itself is the only one the tasks skip.
					if nodes := e.Stats().Nodes; nodes != ref.Nodes-1 {
						t.Errorf("%s RunPrefix(len 1): %d nodes over all roots, full run %d", name, nodes, ref.Nodes)
					}
				}
				check("RunPrefix(len 1)")
				// Every prefix length from 2 up to the whole embedding.
				for L := 2; L <= n; L++ {
					var expand func(prefix []uint32)
					expand = func(prefix []uint32) {
						if len(prefix) == L {
							e.RunPrefix(prefix)
							return
						}
						for _, w := range children(probe, prefix, nil) {
							expand(append(prefix[:len(prefix):len(prefix)], w))
						}
					}
					for _, r := range roots {
						expand([]uint32{r})
					}
					// children does not order by the symmetry classes;
					// pinning rejects the out-of-order prefixes.
					check(fmt.Sprintf("RunPrefix(len %d)", L))
				}
			}
		}
	}
}

// stopFixture is star4 over a single-label graph of average degree 16:
// some 270 000 embeddings in last-level runs of a dozen each, enough
// nodes for several cancel/deadline polls.
func stopFixture(t testing.TB) *fixture {
	g := testutil.RandomGraph(rand.New(rand.NewSource(43)), 80, 640, 1)
	star4 := graph.MustFromEdges(make([]graph.Label, 4), [][2]graph.Vertex{{0, 1}, {0, 2}, {0, 3}})
	return newFixture(t, star4, g, filter.LDF)
}

// leafRun is the last-level run the stop tests aim at: the embeddings
// in emission order, and the index range [lo, hi) of the longest
// stretch that differs only in the last-mapped query vertex.
func leafRun(t *testing.T, f *fixture, opts Options) (order [][]uint32, lo, hi int) {
	t.Helper()
	opts.OnRun = eachEmbedding(func(m []uint32) bool {
		order = append(order, append([]uint32(nil), m...))
		return true
	})
	f.run(t, opts)
	last := f.phi[len(f.phi)-1]
	sameRun := func(a, b []uint32) bool {
		for u := range a {
			if graph.Vertex(u) != last && a[u] != b[u] {
				return false
			}
		}
		return true
	}
	for i := 0; i < len(order); {
		j := i + 1
		for j < len(order) && sameRun(order[i], order[j]) {
			j++
		}
		if j-i > hi-lo {
			lo, hi = i, j
		}
		i = j
	}
	if hi-lo < 4 {
		t.Fatalf("fixture: longest leaf run has %d embeddings", hi-lo)
	}
	return order, lo, hi
}

// stopConfigs are the three recursions that call leafLevel, and the
// plain one under symmetry breaking, whose skips the cap test counts.
var stopConfigs = []leafConfig{
	{"plain", Options{Local: Intersect}},
	{"fs", Options{Local: Intersect, FailingSets: true}},
	{"adaptive", Options{Local: Intersect, Adaptive: true}},
	{"sym", Options{Local: Intersect, SymmetryClasses: [][]graph.Vertex{{1, 2, 3}}}},
}

// parentCap is what commit 723661e's engine — the last one whose leaves
// were accounted one by one — reports when MaxEmbeddings lands two
// embeddings into stopFixture's longest leaf run: the Stats counters
// (the node count is also commit 1c57d51's, whose leaves were recursive
// calls) and the per-depth profile, which shows that no candidate past
// the last embedding was looked at.
type parentCap struct {
	nodes, embeddings                        uint64
	conflicts, symmetrySkips, extended, prof []uint64
}

var parentCaps = map[string]parentCap{
	"plain": {66295, 62414,
		[]uint64{0, 0, 0xd4, 0x1c8e, 0}, []uint64{0, 0, 0, 0, 0},
		[]uint64{0xd, 0xd4, 0xe47, 0xf3ce, 0}, []uint64{1, 0xd, 0xd4, 0xe47, 0xf3ce}},
	"fs": {66295, 62414,
		[]uint64{0, 0, 0xd4, 0x1c8e, 0}, []uint64{0, 0, 0, 0, 0},
		[]uint64{0xd, 0xd4, 0xe47, 0xf3ce, 0}, []uint64{1, 0xd, 0xd4, 0xe47, 0xf3ce}},
	"adaptive": {66295, 62414,
		[]uint64{0, 0, 0xd4, 0x1c8e, 0}, []uint64{0, 0, 0, 0, 0},
		[]uint64{0xd, 0xd4, 0xe47, 0xf3ce, 0}, []uint64{1, 0xd, 0xd4, 0xe47, 0xf3ce}},
	"sym": {12458, 10404,
		[]uint64{0, 0, 0xd4, 0xe48, 0}, []uint64{0, 0, 0x723, 0x5144, 0},
		[]uint64{0xd, 0xd4, 0x724, 0x28a4, 0}, []uint64{1, 0xd, 0xd4, 0x724, 0x28a4}},
}

func TestLeafLevelStopsMidRun(t *testing.T) {
	f := stopFixture(t)
	for _, c := range stopConfigs {
		order, lo, hi := leafRun(t, f, c.opts)
		k := uint64(lo + 2)

		// The embedding cap lands inside a run: exactly k, LimitHit, and
		// every count the parent had when it stopped at the same leaf.
		capped := c.opts
		capped.MaxEmbeddings = k
		capped.Profile = true
		st := f.run(t, capped)
		if st.Embeddings != k || !st.LimitHit || st.TimedOut {
			t.Errorf("%s cap %d: %d embeddings, LimitHit %v, TimedOut %v", c.name, k, st.Embeddings, st.LimitHit, st.TimedOut)
		}
		p := st.Profile
		got := parentCap{st.Nodes, st.Embeddings, p.Conflicts, p.SymmetrySkips, p.Extended, p.Nodes}
		if want, ok := parentCaps[c.name]; !ok {
			t.Errorf("no parent counts recorded:\n\t%q: %#v,", c.name, got)
		} else if !reflect.DeepEqual(got, want) {
			t.Errorf("%s cap %d:\n\t%+v, parent's engine\n\t%+v", c.name, k, got, want)
		}
		capNodes := st.Nodes

		// A sink that takes only part of a run — the one [lo, hi) — stops
		// the search at the same leaf: it was handed the parent's sequence
		// up to there, and exactly what it took is counted.
		var seen uint64
		var calls, longest int
		partial := c.opts
		partial.OnRun = func(m []uint32, u graph.Vertex, vs []uint32) int {
			calls++
			longest = max(longest, len(vs))
			for i, v := range vs {
				m[u] = v
				if !slices.Equal(m, order[seen]) {
					t.Errorf("%s: embedding %d = %v, want %v", c.name, seen, m, order[seen])
				}
				if seen++; seen == k {
					return i + 1
				}
			}
			return len(vs)
		}
		st = f.run(t, partial)
		if seen != k || st.Embeddings != k || st.LimitHit || st.Nodes != capNodes {
			t.Errorf("%s sink stop at %d: %d handed over, %d embeddings, %d nodes (cap run %d), LimitHit %v",
				c.name, k, seen, st.Embeddings, st.Nodes, capNodes, st.LimitHit)
		}
		if longest != hi-lo || calls >= int(k) {
			t.Errorf("%s: %d sink calls for %d embeddings, longest run %d; the fixture's longest is %d",
				c.name, calls, k, longest, hi-lo)
		}
	}
}

// TestLeafLevelHonorsCancelAndDeadline stores Cancel from inside a leaf
// run and, separately, arms an already expired deadline: the search
// stops within timeCheckInterval nodes either way, and the engine runs
// the full search afterwards as if nothing had happened.
func TestLeafLevelHonorsCancelAndDeadline(t *testing.T) {
	f := stopFixture(t)
	for _, c := range stopConfigs {
		order, lo, _ := leafRun(t, f, c.opts)
		ref := f.run(t, c.opts)
		if ref.Nodes < 4*timeCheckInterval {
			t.Fatalf("fixture: %d nodes, too few to observe a poll interval", ref.Nodes)
		}

		var cancel atomic.Bool
		var seen int
		var nodesAtCancel uint64
		opts := c.opts
		opts.Cancel = &cancel
		var e *Engine
		opts.OnRun = func(m []uint32, u graph.Vertex, vs []uint32) int {
			if seen <= lo+2 && lo+2 < seen+len(vs) {
				cancel.Store(true)
				nodesAtCancel = e.engine.stats.Nodes
			}
			seen += len(vs)
			return len(vs)
		}
		e, err := NewEngine(f.q, f.g, f.cand, f.space, f.phi, opts)
		if err != nil {
			t.Fatal(err)
		}
		st := e.Run()
		if over := st.Nodes - nodesAtCancel; nodesAtCancel == 0 || over > timeCheckInterval {
			t.Errorf("%s: %d nodes after Cancel was stored, want at most %d", c.name, over, timeCheckInterval)
		}
		if st.TimedOut || st.LimitHit || st.Nodes >= ref.Nodes {
			t.Errorf("%s cancel: TimedOut %v LimitHit %v, %d of %d nodes", c.name, st.TimedOut, st.LimitHit, st.Nodes, ref.Nodes)
		}

		cancel.Store(false)
		e.Rearm(opts)
		e.SetDeadline(time.Now().Add(-time.Second))
		for _, r := range f.cand[f.phi[0]] {
			if !e.RunPrefix([]uint32{r}) {
				break
			}
		}
		if st := e.Stats(); !st.TimedOut || st.Nodes > timeCheckInterval {
			t.Errorf("%s expired deadline: TimedOut %v after %d nodes, want within %d", c.name, st.TimedOut, st.Nodes, timeCheckInterval)
		}

		seen = len(order) // past the cancel trigger
		e.SetDeadline(time.Time{})
		st = e.Run()
		if st.Nodes != ref.Nodes || st.Embeddings != ref.Embeddings || st.TimedOut {
			t.Errorf("%s: reused engine ran (%d nodes, %d embeddings, TimedOut %v), fresh (%d, %d)",
				c.name, st.Nodes, st.Embeddings, st.TimedOut, ref.Nodes, ref.Embeddings)
		}
	}
}

// TestLeafLevelSplitsRuns: a last level with more admissible candidates
// than timeCheckInterval is handed over in pieces no longer than that,
// so the scratch run and the distance between two polls stay bounded
// whatever the data graph's degrees are; Options.MaxRun shortens the
// pieces further. However the level is cut, the counts are the same.
func TestLeafLevelSplitsRuns(t *testing.T) {
	const leaves = timeCheckInterval + 100
	edges := make([][2]graph.Vertex, leaves)
	for i := range edges {
		edges[i] = [2]graph.Vertex{0, graph.Vertex(i + 1)}
	}
	g := graph.MustFromEdges(make([]graph.Label, leaves+1), edges)
	q := graph.MustFromEdges(make([]graph.Label, 2), [][2]graph.Vertex{{0, 1}})
	f := newFixture(t, q, g, filter.LDF)
	ref := f.run(t, Options{Local: Intersect})
	for _, maxRun := range []int{0, 1, 3, 2 * timeCheckInterval} {
		want := timeCheckInterval
		if maxRun > 0 && maxRun < want {
			want = maxRun
		}
		var longest, total int
		st := f.run(t, Options{Local: Intersect, MaxRun: maxRun, OnRun: func(m []uint32, u graph.Vertex, vs []uint32) int {
			if m[0] == 0 {
				longest = max(longest, len(vs))
			}
			total += len(vs)
			return len(vs)
		}})
		if longest != want || total != 2*leaves || st.Embeddings != ref.Embeddings || st.Nodes != ref.Nodes {
			t.Errorf("MaxRun %d: longest run from the hub %d (want %d), %d of %d embeddings handed over, Stats (%d nodes, %d embeddings), sinkless (%d, %d)",
				maxRun, longest, want, total, 2*leaves, st.Nodes, st.Embeddings, ref.Nodes, ref.Embeddings)
		}
	}
}

// runSequences are the queries whose emission sequence is compared run
// by run with the parent's: tritail (failing sets prune it, the adaptive
// order differs from the static one) and a 4-cycle (homomorphisms
// differ from isomorphisms), each under three matching orders that leave
// the open position first, in the middle and last in the mapping.
func runSequences(t testing.TB) (*graph.Graph, []leafQuery, map[string][][]graph.Vertex) {
	g, queries := leafFixture(t)
	cycle4 := leafQuery{"cycle4",
		graph.MustFromEdges(make([]graph.Label, 4), [][2]graph.Vertex{{0, 1}, {1, 2}, {2, 3}, {3, 0}}),
		[][]graph.Vertex{{0, 2}, {1, 3}}}
	return g, []leafQuery{queries[3], cycle4}, map[string][][]graph.Vertex{
		"tritail": {{3, 2, 1, 0}, {0, 2, 3, 1}, {0, 1, 2, 3}},
		"cycle4":  {{1, 2, 3, 0}, {0, 3, 2, 1}, {0, 1, 2, 3}},
	}
}

// parentSequences holds, per "query/variant/u=open position", FNV-64a of
// the embeddings in the order commit 723661e's per-embedding hook
// received them, and how many there were.
var parentSequences = map[string][2]uint64{
	"tritail/plain/u=0":    {0x92bf94531ebf2d45, 2806},
	"tritail/fs/u=0":       {0x92bf94531ebf2d45, 2806},
	"tritail/adaptive/u=0": {0x92bf94531ebf2d45, 2806},
	"tritail/sym/u=0":      {0x9b77d76882ceac94, 1403},
	"tritail/hom/u=0":      {0x92bf94531ebf2d45, 2806},
	"tritail/plain/u=1":    {0x0c0d843850793785, 2806},
	"tritail/fs/u=1":       {0x0c0d843850793785, 2806},
	"tritail/adaptive/u=1": {0x629c6375e974e845, 2806},
	"tritail/sym/u=1":      {0x8eed8047f7f97e54, 1403},
	"tritail/hom/u=1":      {0x0c0d843850793785, 2806},
	"tritail/plain/u=3":    {0x222b6aef37723ec5, 2806},
	"tritail/fs/u=3":       {0x222b6aef37723ec5, 2806},
	"tritail/adaptive/u=3": {0x222b6aef37723ec5, 2806},
	"tritail/sym/u=3":      {0x74fa9dcdf8951694, 1403},
	"tritail/hom/u=3":      {0x222b6aef37723ec5, 2806},
	"cycle4/plain/u=0":     {0xf34cc3a2d456bce5, 2000},
	"cycle4/fs/u=0":        {0xf34cc3a2d456bce5, 2000},
	"cycle4/adaptive/u=0":  {0xf34cc3a2d456bce5, 2000},
	"cycle4/sym/u=0":       {0x8378fdef8bbcee25, 500},
	"cycle4/hom/u=0":       {0x04b2e48797c39325, 5110},
	"cycle4/plain/u=1":     {0x272d1af252f04765, 2000},
	"cycle4/fs/u=1":        {0x272d1af252f04765, 2000},
	"cycle4/adaptive/u=1":  {0x272d1af252f04765, 2000},
	"cycle4/sym/u=1":       {0x51bf3e402e35ada5, 500},
	"cycle4/hom/u=1":       {0x2290ede5c90c7625, 5110},
	"cycle4/plain/u=3":     {0x660c89d0c1af0ce5, 2000},
	"cycle4/fs/u=3":        {0x660c89d0c1af0ce5, 2000},
	"cycle4/adaptive/u=3":  {0x660c89d0c1af0ce5, 2000},
	"cycle4/sym/u=3":       {0x1e1c6610b55caaa5, 500},
	"cycle4/hom/u=3":       {0xff338127414e3ba5, 5110},
}

// TestLeafRunsConcatenateToParentSequence: the runs, concatenated, are
// the embedding sequence the per-embedding hook used to receive — same
// embeddings, same order — and a run is what the contract says: the open
// position is the last-mapped query vertex (under a static order) and no
// other position changes inside the call.
func TestLeafRunsConcatenateToParentSequence(t *testing.T) {
	g, queries, orders := runSequences(t)
	for _, lq := range queries {
		variants := []leafConfig{
			{"plain", Options{Local: Intersect}},
			{"fs", Options{Local: Intersect, FailingSets: true}},
			{"adaptive", Options{Local: Intersect, Adaptive: true}},
			{"sym", Options{Local: Intersect, SymmetryClasses: lq.classes}},
			{"hom", Options{Local: Intersect, Homomorphism: true}},
		}
		f := newFixture(t, lq.q, g, filter.LDF)
		for _, phi := range orders[lq.name] {
			f.phi = phi
			open := phi[len(phi)-1]
			for _, c := range variants {
				name := fmt.Sprintf("%s/%s/u=%d", lq.name, c.name, open)
				h := fnv.New64a()
				var n uint64
				multi := 0
				opts := c.opts
				opts.OnRun = func(m []uint32, u graph.Vertex, vs []uint32) int {
					if u != open && !opts.Adaptive {
						t.Errorf("%s: run with position %d open, the order's last vertex is %d", name, u, open)
					}
					if len(vs) > 1 {
						multi++
					}
					for _, v := range vs {
						m[u] = v
						for _, x := range m {
							foldU64(h, uint64(x))
						}
						n++
					}
					return len(vs)
				}
				st := f.run(t, opts)
				got := [2]uint64{h.Sum64(), n}
				if want, ok := parentSequences[name]; !ok {
					t.Errorf("no parent sequence recorded:\n\t%q: {%#016x, %d},", name, got[0], got[1])
				} else if got != want {
					t.Errorf("%s: sequence digest %#016x over %d embeddings, parent's hook saw %#016x over %d", name, got[0], got[1], want[0], want[1])
				}
				if st.Embeddings != n || multi == 0 {
					t.Errorf("%s: Stats.Embeddings %d, %d handed over, %d runs longer than one", name, st.Embeddings, n, multi)
				}
			}
		}
	}
}

// BenchmarkEngineLeafLevel is a search that is almost all last level
// (stopFixture: 14 of 15 nodes are leaves) on a reused engine, with no
// sink and with one that does nothing, for each recursion that calls
// leafLevel.
func BenchmarkEngineLeafLevel(b *testing.B) {
	f := stopFixture(b)
	for _, c := range stopConfigs[:3] {
		for _, cb := range []struct {
			name string
			fn   func([]uint32, graph.Vertex, []uint32) int
		}{{"nil", nil}, {"noop", func(_ []uint32, _ graph.Vertex, vs []uint32) int { return len(vs) }}} {
			b.Run(c.name+"/OnRun="+cb.name, func(b *testing.B) {
				opts := c.opts
				opts.OnRun = cb.fn
				e, err := NewEngine(f.q, f.g, f.cand, f.space, f.phi, opts)
				if err != nil {
					b.Fatal(err)
				}
				var nodes uint64
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					nodes += e.Run().Nodes
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(nodes), "ns/node")
			})
		}
	}
}
