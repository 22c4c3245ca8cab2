package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"subgraphmatching/internal/enumerate"
	"subgraphmatching/internal/filter"
	"subgraphmatching/internal/graph"
	"subgraphmatching/internal/intersect"
	"subgraphmatching/internal/order"
	"subgraphmatching/internal/testutil"
)

// diffInput is one oracle input, as the fuzz arguments carry it.
type diffInput struct {
	seed                 int64
	gsize, qsize, labels uint8
	cfg                  uint32
	cap                  uint8
}

// maxHomomorphisms bounds the reference: an input with more
// homomorphisms is skipped, so no fuzz input runs for long.
const maxHomomorphisms = 4096

// pathLabels marks an input of the path mode: a labels byte at or above
// it draws a path query of more than MaxFailingSetVertices vertices
// inside a longer path graph instead of a random pair.
const pathLabels = 0xF0

// differentialSeeds is the deterministic seed corpus: 40 random pairs,
// then a 65-vertex path query in a 69-vertex path, whose decoded tuple
// asks for failing sets, then four pairs whose decoded tuple counts its
// tail: one whose tail holds two vertices of one label (and reaches caps
// 1 and 7 inside it, and counts it with 4 uncapped workers), one under
// homomorphism, one under failing sets whose tail counts 0 on some
// path, and one whose tail a third vertex of one label cuts short — the
// loop runs over that vertex.
func differentialSeeds() []diffInput {
	in := make([]diffInput, 40)
	for i := range in {
		in[i] = diffInput{seed: int64(i), gsize: uint8(i * 7), qsize: uint8(i * 29), labels: uint8(i),
			cfg: uint32(i) * 2654435761, cap: uint8(i * 5)}
	}
	failingSets := uint32(len(filter.Methods()) * len(order.Methods()) * 4 * 4)
	return append(in, diffInput{seed: 40, gsize: 3, qsize: 0, labels: pathLabels, cfg: failingSets, cap: 3},
		diffInput{seed: 360, gsize: 23, qsize: 53, labels: 1, cfg: 0xb0d6, cap: 200},
		diffInput{seed: 340, gsize: 56, qsize: 106, labels: 0, cfg: 0xab8f, cap: 34},
		diffInput{seed: 68, gsize: 143, qsize: 78, labels: 2, cfg: 0xaf8c, cap: 89},
		diffInput{seed: 570, gsize: 222, qsize: 102, labels: 0, cfg: 0x96ad, cap: 102})
}

// FuzzDifferential is the differential oracle. Every way the pipeline
// can answer a small (q, g) — every preset, and one fuzz-decoded point
// of the whole (filter, order, local candidates, kernel, optimisations)
// tuple; fresh and over a cached plan, whose later requests re-arm a
// parked engine; at 1 and 4 workers; counting and through both sink
// forms; capped and uncapped — must return the embedding multiset of
// one brute-force reference. A decoded tuple the engine cannot run is
// refused first (checkRefused), and the oracle runs its legal
// neighbour.
func FuzzDifferential(f *testing.F) {
	for _, in := range differentialSeeds() {
		f.Add(in.seed, in.gsize, in.qsize, in.labels, in.cfg, in.cap)
	}
	f.Fuzz(func(t *testing.T, seed int64, gsize, qsize, labels uint8, cfg uint32, cap uint8) {
		checkDifferential(t, diffInput{seed, gsize, qsize, labels, cfg, cap})
	})
}

// What an input reached, as the bits checkDifferential reports.
const (
	covOrbit           = 1 << iota // a symmetry orbit above 1
	covDonated                     // a parallel run that donated
	covHomAboveIso                 // more homomorphisms than isomorphisms
	covEmpty                       // an empty result
	covCutRun                      // a cap that cuts a leaf run
	covAdaptiveDonated             // an adaptive plan whose parallel run donated
	covTailPair                    // a counted tail with two vertices of one label
	covTailCut                     // a tail a third vertex of one label cut short
	covTailHom                     // a counted tail under homomorphism
	covTailZero                    // a tail that counted 0 under failing sets
	covTailCapped                  // caps 1 and 7 reached inside a counted tail
	covTailWorkers                 // a tail counted by 4 uncapped workers
	covAll             = 1<<iota - 1
)

// TestDifferentialCorpusCoverage: the seed corpus still reaches every
// case the oracle exists to check.
func TestDifferentialCorpusCoverage(t *testing.T) {
	cov := 0
	if runtime.GOMAXPROCS(0) == 1 {
		// Donation needs a worker idle while another searches.
		cov = covDonated | covAdaptiveDonated
	}
	for _, in := range differentialSeeds() {
		cov |= checkDifferential(t, in)
	}
	if cov != covAll {
		t.Errorf("the seed corpus covers %012b of %012b", cov, covAll)
	}
}

// decodeConfig maps c onto one point of the tuple: filter × order ×
// local candidates × kernel policy, then one bit each for failing sets,
// adaptive order, VF2++ rules, symmetry breaking, homomorphism and the
// counted tail. It
// decodes tuples the engine refuses too; legalConfig is the one the
// oracle runs.
func decodeConfig(c uint32) Config {
	pick := func(n int) int {
		v := int(c % uint32(n))
		c /= uint32(n)
		return v
	}
	cfg := Config{
		Filter: filter.Methods()[pick(len(filter.Methods()))],
		Order:  order.Methods()[pick(len(order.Methods()))],
		Local:  enumerate.LocalCandidates(pick(4)),
		Kernel: intersect.Policy(pick(4)),
	}
	cfg.FailingSets = pick(2) == 1
	cfg.Adaptive = pick(2) == 1
	cfg.VF2PPRules = pick(2) == 1
	cfg.SymmetryBreaking = pick(2) == 1
	cfg.Homomorphism = pick(2) == 1
	cfg.CountTail = pick(2) == 1
	return cfg
}

// legalConfig normalises away what Config.Check refuses for a query of
// n vertices, and nothing else.
func legalConfig(cfg Config, n int) Config {
	if cfg.Homomorphism {
		cfg.SymmetryBreaking, cfg.VF2PPRules = false, false
	}
	if cfg.VF2PPRules {
		cfg.Local, cfg.Adaptive = enumerate.Direct, false
	}
	if cfg.Adaptive {
		cfg.Local = enumerate.Intersect
	}
	if n > enumerate.MaxFailingSetVertices {
		cfg.FailingSets = false
	}
	return cfg
}

// checkRefused holds Config.Check and Preprocess to one verdict on a
// decoded tuple: one Check passes is the tuple legalConfig leaves as it
// is, and one it refuses — adaptive order without Intersect, VF2++
// without Direct, homomorphism with symmetry breaking or VF2++, failing
// sets past MaxFailingSetVertices — Preprocess refuses alike, with
// enumerate.ErrUnsupported and no plan.
func checkRefused(t *testing.T, name string, q, g *graph.Graph, cfg Config) {
	t.Helper()
	n := q.NumVertices()
	err := cfg.Check(n)
	if err == nil {
		if !reflect.DeepEqual(legalConfig(cfg, n), cfg) {
			t.Fatalf("%s: Check passes a tuple legalConfig changes to %+v", name, legalConfig(cfg, n))
		}
		return
	}
	if !errors.Is(err, enumerate.ErrUnsupported) {
		t.Fatalf("%s: Check: %v, want enumerate.ErrUnsupported", name, err)
	}
	if reflect.DeepEqual(legalConfig(cfg, n), cfg) {
		t.Fatalf("%s: Check refuses a tuple legalConfig keeps: %v", name, err)
	}
	plan, err := Preprocess(q, g, cfg, 1)
	if plan != nil || !errors.Is(err, enumerate.ErrUnsupported) {
		t.Fatalf("%s: Preprocess built %v, err %v; want no plan and enumerate.ErrUnsupported", name, plan, err)
	}
}

// bruteForce returns the sorted keys of q's embeddings in g, or false
// past limit of them.
func bruteForce(q, g *graph.Graph, hom bool, limit int) ([]string, bool) {
	var keys []string
	testutil.BruteForce(q, g, hom, func(m []graph.Vertex) bool {
		keys = append(keys, string(uint32SliceBytes(m)))
		return len(keys) <= limit
	})
	slices.Sort(keys)
	return keys, len(keys) <= limit
}

// canonical is what symmetry breaking enumerates of keys: the
// embeddings increasing inside every class.
func canonical(keys []string, classes [][]graph.Vertex) []string {
	at := func(k string, u graph.Vertex) uint32 { return binary.LittleEndian.Uint32([]byte(k[4*u:])) }
	return slices.DeleteFunc(slices.Clone(keys), func(k string) bool {
		for _, c := range classes {
			for i := 1; i < len(c); i++ {
				if at(k, c[i-1]) >= at(k, c[i]) {
					return true
				}
			}
		}
		return false
	})
}

// checkDifferential builds the input's (q, g), checks every
// configuration against the brute-force reference and reports what it
// covered.
func checkDifferential(t *testing.T, in diffInput) (cov int) {
	t.Helper()
	var q, g *graph.Graph
	var hom, iso []string
	path := in.labels >= pathLabels
	if path {
		// A path has too many homomorphisms to list: the mode runs no
		// homomorphism tuple.
		g = pathGraph(enumerate.MaxFailingSetVertices + 5 + int(in.gsize)%4)
		q = pathGraph(enumerate.MaxFailingSetVertices + 1 + int(in.qsize)%2)
	} else {
		rng := rand.New(rand.NewSource(in.seed))
		n, labels := 2+int(in.gsize)%27, 1+int(in.labels)%3
		g = testutil.RandomGraph(rng, n, rng.Intn(3*n+1), labels)
		src := g
		if in.qsize >= 128 {
			// A query drawn from another graph may not embed in g at all.
			src = testutil.RandomGraph(rng, n, rng.Intn(3*n+1), labels)
		}
		q = testutil.RandomConnectedQuery(rng, src, 2+int(in.qsize)%5)
		if q == nil {
			return 0
		}
		var ok bool
		if hom, ok = bruteForce(q, g, true, maxHomomorphisms); !ok {
			return 0
		}
	}
	iso, _ = bruteForce(q, g, false, maxHomomorphisms)
	decoded := decodeConfig(in.cfg)
	checkRefused(t, fmt.Sprintf("%+v on %+v", decoded, in), q, g, decoded)
	legal := legalConfig(decoded, q.NumVertices())
	if path {
		legal.Homomorphism = false
	}
	cfgs := []Config{legal}
	for _, a := range Algorithms() {
		cfgs = append(cfgs, PresetConfig(a, q, g))
	}
	for _, cfg := range cfgs {
		ref := iso
		if cfg.Homomorphism {
			ref = hom
			if len(hom) > len(iso) {
				cov |= covHomAboveIso
			}
		}
		if len(ref) == 0 {
			cov |= covEmpty
		}
		cov |= checkConfig(t, fmt.Sprintf("%+v on %+v", cfg, in), q, g, cfg, ref, in.cap)
	}
	return cov
}

// Sink forms a run delivers through.
const (
	countOnly = iota
	runSink
	matchSink
)

// step is one request of a configuration's sequence.
type step struct {
	do   func(Limits) (*Result, error)
	sink int
	cap  uint64
}

// checkConfig runs one configuration. An external engine runs fresh
// counting, through both sinks and capped: Glasgow at 1 and 4 workers,
// VF2 and Ullmann sequentially. A framework configuration runs fresh and
// then over one cached plan at 1 and 4 workers; the cached requests
// differ in cap and sink, so each re-arms an engine a previous one
// parked with other request state. Uncapped, a sink takes exactly the
// reference (its canonical part under symmetry breaking); capped at k,
// k distinct reference embeddings; and the count is what it took times
// the orbit. Sequential node counts must not rise when failing sets or
// symmetry breaking are turned on.
func checkConfig(t *testing.T, name string, q, g *graph.Graph, cfg Config, ref []string, capSeed uint8) (cov int) {
	t.Helper()
	canon, orbit := ref, uint64(1)
	var plan *Plan
	if !cfg.External() {
		var err error
		if plan, err = Preprocess(q, g, cfg, 1); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if orbit = plan.Orbit; orbit > 1 {
			cov |= covOrbit
		}
		if canon = canonical(ref, plan.SymClasses); uint64(len(canon))*orbit != uint64(len(ref)) {
			t.Fatalf("%s: %d canonical embeddings × orbit %d, brute force %d", name, len(canon), orbit, len(ref))
		}
	}
	capBelow := func(seed uint8) uint64 {
		if len(canon) < 2 {
			return 0
		}
		return 1 + uint64(seed)%uint64(len(canon)-1)
	}
	k := capBelow(capSeed)
	fresh := func(l Limits) (*Result, error) { return Match(q, g, cfg, l) }
	cached := func(l Limits) (*Result, error) { return MatchPlan(plan, l) }
	steps := []step{{fresh, countOnly, 0}, {fresh, matchSink, 0}, {fresh, runSink, k}}
	workers := []int{1}
	if cfg.UseGlasgow {
		workers = append(workers, 4)
	}
	if plan != nil {
		steps = []step{{fresh, runSink, 0}, {cached, countOnly, k}, {cached, matchSink, 0},
			{cached, runSink, capBelow(capSeed / 2)}, {cached, countOnly, 0}}
		workers = []int{1, 4}
	}
	for _, w := range workers {
		for _, s := range steps {
			at := fmt.Sprintf("%s: workers %d, sink %d, cap %d", name, w, s.sink, s.cap)
			res, keys, calls := deliver(t, at, s, Limits{Parallel: w, MaxEmbeddings: s.cap})
			want := uint64(len(canon))
			if s.cap > 0 {
				want = s.cap
			}
			if res.Embeddings != want*orbit {
				t.Fatalf("%s: %d embeddings, want %d × orbit %d", at, res.Embeddings, want, orbit)
			}
			slices.Sort(keys)
			if s.sink != countOnly && uint64(len(keys)) != want {
				t.Fatalf("%s: the sink took %d embeddings, want %d", at, len(keys), want)
			}
			for i, key := range keys {
				if _, ok := slices.BinarySearch(canon, key); !ok || i > 0 && keys[i-1] == key {
					t.Fatalf("%s: the sink took an embedding brute force does not have, or took one twice", at)
				}
			}
			if res.Split != nil && res.Split.SplitTasks > 0 {
				cov |= covDonated
				if cfg.Adaptive {
					cov |= covAdaptiveDonated
				}
			}
			// Sequential delivery order is deterministic: the cap cuts a
			// leaf run where embeddings k and k+1 arrive in one call.
			if w == 1 && s.sink == runSink && s.cap == 0 && k > 0 && calls[k-1] == calls[k] {
				cov |= covCutRun
			}
		}
		_, err := steps[0].do(Limits{Parallel: w,
			OnMatch: func([]uint32) bool { return true },
			OnRun:   func(_ []uint32, _ graph.Vertex, vs []uint32) int { return len(vs) }})
		if !errors.Is(err, ErrTwoSinks) {
			t.Fatalf("%s: workers %d, both sinks set: err = %v, want ErrTwoSinks", name, w, err)
		}
	}
	if plan != nil {
		nodes := func(fs, sym bool) uint64 {
			c := cfg
			c.FailingSets, c.SymmetryBreaking = fs, sym
			res, err := Match(q, g, c, Limits{})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			return res.Nodes
		}
		if q.NumVertices() <= enumerate.MaxFailingSetVertices {
			if off, on := nodes(false, cfg.SymmetryBreaking), nodes(true, cfg.SymmetryBreaking); on > off {
				t.Fatalf("%s: %d nodes with failing sets, %d without", name, on, off)
			}
		}
		if !cfg.Homomorphism {
			if off, on := nodes(false, false), nodes(false, true); on > off {
				t.Fatalf("%s: %d nodes with symmetry breaking, %d without", name, on, off)
			}
		}
		cov |= checkTail(t, name, plan, uint64(len(canon)))
	}
	return cov
}

// deliver runs s under limits with a sink of s's form and returns the
// result, the keys of the embeddings the sink took in delivery order
// and, per embedding, which call delivered it (named by the index of
// the call's first embedding).
func deliver(t *testing.T, at string, s step, limits Limits) (*Result, []string, []int) {
	t.Helper()
	var keys []string
	var calls []int
	switch s.sink {
	case runSink:
		limits.OnRun = func(m []uint32, u graph.Vertex, vs []uint32) int {
			call := len(keys)
			for _, v := range vs {
				m[u] = v
				keys = append(keys, string(uint32SliceBytes(m)))
				calls = append(calls, call)
			}
			return len(vs)
		}
	case matchSink:
		limits.OnMatch = func(m []uint32) bool {
			keys = append(keys, string(uint32SliceBytes(m)))
			return true
		}
	}
	res, err := s.do(limits)
	if err != nil {
		t.Fatalf("%s: %v", at, err)
	}
	return res, keys, calls
}

// tailOf is the counted tail the engine must find in plan's order: the
// longest suffix, of at least two positions, of pairwise non-adjacent
// vertices with no label three times (any labels under homomorphism).
// It returns the tail's first position (len(Order) when there is none),
// whether a label occurs twice in it, and whether a third vertex of one
// label cut it short.
func tailOf(plan *Plan) (start int, pair, cut bool) {
	q, phi, n := plan.Query, plan.Order, len(plan.Order)
	cfg := plan.Cfg
	if plan.Empty || !cfg.CountTail || cfg.Adaptive || cfg.VF2PPRules {
		return n, false, false
	}
	start = n
	for d := n - 1; d >= 1; d-- {
		adjacent, same := false, 0
		for _, w := range phi[d+1:] {
			adjacent = adjacent || q.HasEdge(phi[d], w)
			if q.Label(w) == q.Label(phi[d]) {
				same++
			}
		}
		if adjacent {
			break
		}
		if !cfg.Homomorphism && same >= 2 {
			cut = true
			break
		}
		pair = pair || (!cfg.Homomorphism && same == 1)
		start = d
	}
	if n-start < 2 {
		return n, false, false
	}
	return start, pair, cut
}

// checkTail holds a plan with a counted tail to its profile's
// reconciliation — sum(Nodes) is Result.Nodes, and Nodes[n] plus the
// counted embeddings times the orbit is Result.Embeddings, with 1 and 4
// workers — and to caps 1 and 7, which the count must stop at exactly.
// canon is the canonical reference count.
func checkTail(t *testing.T, name string, plan *Plan, canon uint64) (cov int) {
	t.Helper()
	start, pair, cut := tailOf(plan)
	n := len(plan.Order)
	if start == n {
		return 0
	}
	for _, w := range []int{1, 4} {
		res, err := MatchPlan(plan, Limits{Parallel: w, Profile: true})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		p := res.Profile
		var counted uint64
		for _, c := range p.Counted {
			counted += c
		}
		if p.TotalNodes() != res.Nodes || (p.Nodes[n]+counted)*plan.Orbit != res.Embeddings {
			t.Fatalf("%s: workers %d: heat nodes %d, emitted %d + counted %d, orbit %d; result %d nodes, %d embeddings",
				name, w, p.TotalNodes(), p.Nodes[n], counted, plan.Orbit, res.Nodes, res.Embeddings)
		}
		if p.Nodes[n] != 0 {
			t.Fatalf("%s: workers %d: %d nodes past the tail at %d", name, w, p.Nodes[n], start)
		}
		if counted == 0 {
			continue
		}
		cov |= tailCov(pair, cut, plan.Cfg.Homomorphism)
		if w == 4 {
			cov |= covTailWorkers
		}
		if plan.Cfg.FailingSets && p.EmptyLC[start] > 0 {
			cov |= covTailZero
		}
	}
	capped := 0
	for _, k := range []uint64{1, 7} {
		if k >= canon {
			continue
		}
		res, err := MatchPlan(plan, Limits{MaxEmbeddings: k, Profile: true})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Embeddings != k*plan.Orbit || !res.LimitHit {
			t.Fatalf("%s: cap %d: %d embeddings (limit hit %v), want %d × orbit %d", name, k, res.Embeddings, res.LimitHit, k, plan.Orbit)
		}
		if res.Profile.Counted[start] > 0 {
			capped++
		}
	}
	if capped == 2 {
		cov |= covTailCapped
	}
	return cov
}

func tailCov(pair, cut, hom bool) (cov int) {
	if pair {
		cov |= covTailPair
	}
	if cut {
		cov |= covTailCut
	}
	if hom {
		cov |= covTailHom
	}
	return cov
}
