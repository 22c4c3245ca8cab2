package core

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"slices"
	"testing"

	"subgraphmatching/internal/enumerate"
	"subgraphmatching/internal/filter"
	"subgraphmatching/internal/graph"
	"subgraphmatching/internal/intersect"
	"subgraphmatching/internal/order"
	"subgraphmatching/internal/querygen"
	"subgraphmatching/internal/rmat"
	"subgraphmatching/internal/testutil"
)

type planFixture struct {
	name    string
	g       *graph.Graph
	queries []*graph.Graph
}

// presetPlanFixtures is the paper's example plus two R-MAT/querygen
// cells of the candidate-space digest grid.
func presetPlanFixtures(t *testing.T) []planFixture {
	t.Helper()
	out := []planFixture{{"paper", testutil.PaperData(), []*graph.Graph{testutil.PaperQuery()}}}
	for _, c := range []struct {
		name string
		rc   rmat.Config
		qc   querygen.Config
	}{
		{"skew85-dense6",
			rmat.Config{NumVertices: 1200, NumEdges: 7200, NumLabels: 5, Seed: 31, LabelSkew: 0.85},
			querygen.Config{NumVertices: 6, Count: 3, Density: querygen.Dense, Seed: 11}},
		{"uniform-sparse8",
			rmat.Config{NumVertices: 900, NumEdges: 3600, NumLabels: 8, Seed: 7},
			querygen.Config{NumVertices: 8, Count: 3, Density: querygen.Sparse, Seed: 5}},
	} {
		g, err := rmat.Generate(c.rc)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		qs, err := querygen.Generate(g, c.qc)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		out = append(out, planFixture{c.name, g, qs})
	}
	return out
}

// qfilterArm is Figure 10's QFilter arm: Algorithm 5 with the block
// kernel pinned.
var qfilterArm = Config{Filter: filter.GQL, Order: order.GQL, Local: enumerate.Intersect, Kernel: intersect.PolicyBlock}

// presetPlanConfigs is every pipeline preset (presets that ignore q and
// g; Optimized is resolved per query) plus the configurations that used
// to spell out what their Local or Adaptive choice implies.
func presetPlanConfigs(q, g *graph.Graph) map[string]Config {
	cfgs := map[string]Config{
		"ordering-study-DPiso": OrderingStudyConfig(order.DPIso, true),
		"fig9-CFL-tree-edge":   {Filter: filter.CFL, Order: order.CFL, Local: enumerate.TreeEdge},
		"fig10-QFilter":        qfilterArm,
	}
	for _, a := range Algorithms() {
		if cfg := PresetConfig(a, q, g); cfg.engine() == "" {
			cfgs[a.String()] = cfg
		}
	}
	return cfgs
}

// digestPlan folds everything a plan hands enumeration into h: the
// candidate sets, the candidate space in the direction its order reads
// (pair materialization from each vertex to its later neighbours, every
// adjacency list and, under the pinned-block policy — the only one that
// reads them — its block view), the order, DP-iso's weights, the orbit,
// the order method and the build span's structure attribute. An
// adjacency list is folded as the data vertices C(u′)[t] its positions
// t stand for; a block view, which encodes the positions themselves, is
// folded as it is, once it has been checked to decode to its list. The
// other direction is not folded: TestPlanHoldsOnlyReadPairs checks that
// the space holds none of it.
func digestPlan(t *testing.T, h hash.Hash64, p *Plan) {
	t.Helper()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	putSet := func(s []uint32) {
		put(uint64(len(s)))
		for _, v := range s {
			put(uint64(v))
		}
	}
	put(uint64(len(p.Cand)))
	for _, c := range p.Cand {
		putSet(c)
	}
	if s := p.Space; s != nil {
		pos := make([]int, len(p.Order))
		for i, u := range p.Order {
			pos[u] = i
		}
		for u := range p.Query.NumVertices() {
			uu := graph.Vertex(u)
			for _, up := range p.Query.Neighbors(uu) {
				if pos[up] < pos[uu] {
					continue
				}
				if !s.HasPair(uu, up) {
					put(0)
					continue
				}
				put(1)
				pair, c := s.Pair(uu, up), s.Candidates(up)
				for ci := range s.Candidates(uu) {
					adj := pair.Adjacency(ci)
					put(uint64(len(adj)))
					for _, x := range adj {
						put(uint64(c[x]))
					}
					var v intersect.BlockView
					if p.Cfg.Kernel == intersect.PolicyBlock {
						v = pair.View(ci)
						if got := v.Elements(nil); !slices.Equal(got, adj) {
							t.Fatalf("(%d->%d)[%d]: block view decodes %v, Adjacency %v", uu, up, ci, got, adj)
						}
					}
					putSet(v.Keys)
					for _, w := range v.Words {
						put(w)
					}
				}
			}
		}
	}
	putSet(p.Order)
	for _, w := range p.Weights {
		put(uint64(len(w)))
		for _, x := range w {
			put(math.Float64bits(x))
		}
	}
	put(p.Orbit)
	h.Write([]byte(p.OrderMethod))
	h.Write([]byte(fmt.Sprint(p.Span.Child("build").Attr("structure"))))
}

// parentPresetPlans holds, per "fixture/config", the FNV-64a plan
// digest commit 20164a0 produced — where the CFL preset and Figure 9's
// arm still set the tree-space flag, the DP-iso configurations the
// DP-weights flag, and Figure 10's arm was the intersect-block local
// kind. The CECI, DPiso, Optimized and ordering-study-DPiso digests, the
// configurations that intersect under the adaptive policy, were
// recorded at commit d2c132f with this digest, which folds no block
// view for them: their CSRs, orders, weights and candidate sets are
// the ones that commit built, and they carry no block layout now. The
// three fig10-QFilter digests were re-recorded when 𝒜 began storing
// positions in C(u′): their block views encode positions since (and
// digestPlan checks each decodes to its adjacency list), while their
// adjacency lists, folded as data vertices, are unchanged. Every value
// was re-recorded at commit 3ab6505, the last to build both directions
// of every pair, with this digest, which folds only the direction the
// plan's order reads: the plans of that commit and of the one-direction
// build digest alike.
var parentPresetPlans = map[string]uint64{
	"paper/CECI":                           0xf5792aa574668c54,
	"paper/CFL":                            0x30920e1bced01e9c,
	"paper/DPiso":                          0x3c6741ce22d48a52,
	"paper/GQL":                            0xfd2940bac29c53b1,
	"paper/Optimized":                      0xacd57bfe4f9306f1,
	"paper/QSI":                            0xb79adbf39ee2e5b7,
	"paper/RI":                             0x8a6820a0eb8e1811,
	"paper/VF2PP":                          0xf2435dd9a84ff062,
	"paper/fig10-QFilter":                  0x1a650c27c6bf50dd,
	"paper/fig9-CFL-tree-edge":             0x30920e1bced01e9c,
	"paper/ordering-study-DPiso":           0x3c6741ce22d48a52,
	"skew85-dense6/CECI":                   0x96c1772501a685e4,
	"skew85-dense6/CFL":                    0xc632128294f235c6,
	"skew85-dense6/DPiso":                  0x10b1ab8858241366,
	"skew85-dense6/GQL":                    0x551b83eb1db279cc,
	"skew85-dense6/Optimized":              0x2eed7d83e26a1d4f,
	"skew85-dense6/QSI":                    0xb5c22ef0d1ced689,
	"skew85-dense6/RI":                     0x20ad75da8ef23c59,
	"skew85-dense6/VF2PP":                  0x86d4868eb427a3e6,
	"skew85-dense6/fig10-QFilter":          0xb97301ebedc53ade,
	"skew85-dense6/fig9-CFL-tree-edge":     0xc632128294f235c6,
	"skew85-dense6/ordering-study-DPiso":   0xa8e9ea6927cac42b,
	"uniform-sparse8/CECI":                 0xaadbc5c2d54e09a3,
	"uniform-sparse8/CFL":                  0xb6ef9f377900ca3c,
	"uniform-sparse8/DPiso":                0x41cbb831e1b8c61a,
	"uniform-sparse8/GQL":                  0x940a0f17d539f297,
	"uniform-sparse8/Optimized":            0x4e6cff8e58feb71b,
	"uniform-sparse8/QSI":                  0xe5b78265e8c2ac46,
	"uniform-sparse8/RI":                   0x439f91add32f169a,
	"uniform-sparse8/VF2PP":                0xd6a2a14eb0b67249,
	"uniform-sparse8/fig10-QFilter":        0xe73b9cd6dc0eb723,
	"uniform-sparse8/fig9-CFL-tree-edge":   0xb6ef9f377900ca3c,
	"uniform-sparse8/ordering-study-DPiso": 0x44e461a2a960e43f,
}

// TestPresetPlansUnchanged: deriving the tree-edge structure from Local
// and DP-iso's weights from Adaptive, and running the QFilter arm as
// Intersect with the block kernel pinned, builds exactly the plans the
// configurations that set those values by hand built.
func TestPresetPlansUnchanged(t *testing.T) {
	for _, f := range presetPlanFixtures(t) {
		digests := map[string]hash.Hash64{}
		for _, q := range f.queries {
			for name, cfg := range presetPlanConfigs(q, f.g) {
				plan, err := Preprocess(q, f.g, cfg, 1)
				if err != nil {
					t.Fatalf("%s/%s: %v", f.name, name, err)
				}
				if digests[name] == nil {
					digests[name] = fnv.New64a()
				}
				digestPlan(t, digests[name], plan)
			}
		}
		for name, h := range digests {
			key := f.name + "/" + name
			if want, ok := parentPresetPlans[key]; !ok {
				t.Errorf("%s: no parent digest recorded", key)
			} else if got := h.Sum64(); got != want {
				t.Errorf("%s: plan digest %#016x, parent's %#016x", key, got, want)
			}
		}
	}
}

// TestPlanHoldsOnlyReadPairs: a plan's candidate space holds (a, b)
// exactly when (a, b) ∈ E(q) and a comes before b in the plan's order —
// under tree-edge, only when a is also b's parent in the tree the plan
// was built over (CFL's, or φ's own when φ does not respect it) — and
// an engine over the plan resolves every pair it reads.
func TestPlanHoldsOnlyReadPairs(t *testing.T) {
	for _, f := range presetPlanFixtures(t) {
		for qi, q := range f.queries {
			for name, cfg := range presetPlanConfigs(q, f.g) {
				key := fmt.Sprintf("%s/%d/%s", f.name, qi, name)
				plan, err := Preprocess(q, f.g, cfg, 1)
				if err != nil {
					t.Fatalf("%s: %v", key, err)
				}
				s := plan.Space
				if s == nil {
					continue
				}
				pos := make([]int, q.NumVertices())
				for i, u := range plan.Order {
					pos[u] = i
				}
				var tree []graph.Vertex
				if cfg.Local == enumerate.TreeEdge {
					if tree = graph.NewBFSTree(q, filter.Root(filter.CFL, q, f.g)).Parent; !respectsTree(tree, plan.Order) {
						tree = orderTree(q, plan.Order)
					}
				}
				for a := range graph.Vertex(q.NumVertices()) {
					for b := range graph.Vertex(q.NumVertices()) {
						want := q.HasEdge(a, b) && pos[a] < pos[b] && (tree == nil || tree[b] == a)
						if s.HasPair(a, b) != want {
							t.Errorf("%s: HasPair(%d, %d) = %v, want %v (order %v)", key, a, b, !want, want, plan.Order)
						}
					}
				}
				if _, err := MatchPlan(plan, Limits{MaxEmbeddings: 1}); err != nil {
					t.Errorf("%s: %v", key, err)
				}
			}
		}
	}
}

// parentQFilterRuns holds, per fixture query, the embeddings and kernel
// mix Figure 10's QFilter arm (then the intersect-block local kind)
// returned at commit 20164a0 under the paper's 10^5 cap.
var parentQFilterRuns = map[string]struct {
	embeddings uint64
	kernels    intersect.KernelStats
}{
	"paper/0":           {1, intersect.KernelStats{0, 0, 4}},
	"skew85-dense6/0":   {100000, intersect.KernelStats{0, 0, 140444}},
	"skew85-dense6/1":   {30954, intersect.KernelStats{0, 0, 3311}},
	"skew85-dense6/2":   {100000, intersect.KernelStats{0, 0, 788}},
	"uniform-sparse8/0": {12129, intersect.KernelStats{0, 0, 0}},
	"uniform-sparse8/1": {5262, intersect.KernelStats{0, 0, 945}},
	"uniform-sparse8/2": {2, intersect.KernelStats{0, 0, 136}},
}

// TestQFilterArmUnchanged: the QFilter arm as Intersect with the block
// kernel pinned runs kernel-for-kernel what the intersect-block local
// kind ran.
func TestQFilterArmUnchanged(t *testing.T) {
	for _, f := range presetPlanFixtures(t) {
		for i, q := range f.queries {
			key := fmt.Sprintf("%s/%d", f.name, i)
			res, err := Match(q, f.g, qfilterArm, Limits{MaxEmbeddings: 100_000})
			if err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			want, ok := parentQFilterRuns[key]
			if !ok {
				t.Errorf("%s: no parent run recorded", key)
			} else if res.Embeddings != want.embeddings || res.Kernels != want.kernels {
				t.Errorf("%s: %d embeddings, kernels %v; parent %d, %v",
					key, res.Embeddings, res.Kernels, want.embeddings, want.kernels)
			}
		}
	}
}

// parentHybridRuns holds, per fixture query, the embeddings and kernel
// mix Figure 10's Hybrid arm — the GraphQL pipeline with the kernel
// pinned to the policy then named hybrid, the paper's size-ratio
// switch — returned at commit d2c132f under the paper's 10^5 cap.
var parentHybridRuns = map[string]struct {
	embeddings uint64
	kernels    intersect.KernelStats
}{
	"paper/0":           {1, intersect.KernelStats{4, 0, 0}},
	"skew85-dense6/0":   {100000, intersect.KernelStats{134658, 5786, 0}},
	"skew85-dense6/1":   {30954, intersect.KernelStats{3282, 29, 0}},
	"skew85-dense6/2":   {100000, intersect.KernelStats{757, 31, 0}},
	"uniform-sparse8/0": {12129, intersect.KernelStats{0, 0, 0}},
	"uniform-sparse8/1": {5262, intersect.KernelStats{945, 0, 0}},
	"uniform-sparse8/2": {2, intersect.KernelStats{136, 0, 0}},
}

// TestDefaultPolicyIsParentHybrid: the default kernel policy runs,
// kernel for kernel, what the pinned Hybrid policy ran — so Figure 9
// and 10's arms, which now leave Config.Kernel at its zero value, still
// measure the paper's merge/galloping switch.
func TestDefaultPolicyIsParentHybrid(t *testing.T) {
	arm := Config{Filter: filter.GQL, Order: order.GQL, Local: enumerate.Intersect}
	for _, f := range presetPlanFixtures(t) {
		for i, q := range f.queries {
			key := fmt.Sprintf("%s/%d", f.name, i)
			res, err := Match(q, f.g, arm, Limits{MaxEmbeddings: 100_000})
			if err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			want, ok := parentHybridRuns[key]
			if !ok {
				t.Errorf("%s: no parent run recorded", key)
			} else if res.Embeddings != want.embeddings || res.Kernels != want.kernels {
				t.Errorf("%s: %d embeddings, kernels %v; parent's Hybrid %d, %v",
					key, res.Embeddings, res.Kernels, want.embeddings, want.kernels)
			}
		}
	}
}
