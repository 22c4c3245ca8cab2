package enumerate

import (
	"math/rand"
	"sort"
	"sync/atomic"
	"testing"

	"subgraphmatching/internal/filter"
	"subgraphmatching/internal/testutil"
)

// children appends to dst what the search can map at position
// len(prefix) once prefix is pinned: the next level's local candidates
// as data vertices, less those the prefix maps — every child task of the
// prefix. A conflicting prefix, or one that pins the whole query, has
// none.
func children(E *Engine, prefix, dst []uint32) []uint32 {
	e := &E.engine
	L := len(prefix)
	if L == 0 || L >= e.q.NumVertices() {
		return dst
	}
	k := e.pinPrefix(prefix)
	if k == L {
		u := e.phi[L]
		var lc []uint32
		if e.opts.Adaptive {
			// Some vertex is extendable: the unmapped one first in delta.
			u = e.selectExtendable()
			lc = e.adaptive.lcOf[u]
			e.adaptive.pool = append(e.adaptive.pool, u)
		} else {
			lc = e.computeLC(L, u)
		}
		ids := e.ids[u]
		for _, x := range lc {
			v := x
			if ids != nil {
				v = ids[x]
			}
			if !e.visited[v] {
				dst = append(dst, v)
			}
		}
	}
	e.unpinPrefix(prefix[:k])
	return dst
}

// donatedEmbeddings runs the search the way a parallel scheduler does,
// on one engine: a task per root candidate, and an idle worker to feed
// at every interior node. Give takes an offer when the next bit of
// accept (cycled) is set, queueing one task per donated candidate, and
// every queued task runs until the queue is empty. It returns the
// embeddings as sorted embeddingKeys, the number of tasks donated and
// the engine's statistics.
func donatedEmbeddings(t testing.TB, f *fixture, opts Options, accept uint64) ([]string, int, *Stats) {
	t.Helper()
	var got []string
	opts.OnRun = eachEmbedding(func(m []uint32) bool {
		got = append(got, embeddingKey(m))
		return true
	})
	var idle atomic.Int32
	idle.Store(1)
	var queue [][]uint32
	calls, donated := 0, 0
	opts.Donor = &Donor{Idle: &idle, Give: func(prefix, rest []uint32) bool {
		take := accept>>(calls%64)&1 == 1
		calls++
		if !take {
			return false
		}
		for _, c := range rest {
			queue = append(queue, append(append([]uint32(nil), prefix...), c))
		}
		donated += len(rest)
		return true
	}}
	e, err := NewEngine(f.q, f.g, f.cand, f.space, f.phi, opts)
	if err != nil {
		t.Fatal(err)
	}
	roots := f.cand[f.phi[0]]
	for i := range roots {
		queue = append(queue, roots[i:i+1])
	}
	for len(queue) > 0 {
		task := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		if !e.RunPrefix(task) {
			t.Fatalf("RunPrefix(%v) stopped", task)
		}
	}
	sort.Strings(got)
	return got, donated, e.Stats()
}

// checkDonation compares a donating run of every local method and
// recursion with Engine.Run's embedding multiset, for isomorphisms,
// homomorphisms and, when lq has classes, under symmetry breaking.
// Without failing sets, which may prune differently once a level is
// split, the tasks also expand exactly the full run's search nodes but
// its root, which no task enters.
func checkDonation(t *testing.T, f *fixture, lq leafQuery, accept uint64) (donated int) {
	t.Helper()
	for _, c := range leafConfigs() {
		for _, v := range leafVariants {
			opts, ok := c.variant(v, lq)
			if !ok {
				continue
			}
			want, ref := sortedEmbeddings(t, f, opts)
			got, n, st := donatedEmbeddings(t, f, opts, accept)
			donated += n
			if !opts.FailingSets && st.Nodes != ref.Nodes-1 {
				t.Errorf("%s/%s accept=%#x: %d nodes donating, full run %d", c.name, v, accept, st.Nodes, ref.Nodes)
			}
			if len(got) != len(want) {
				t.Fatalf("%s/%s accept=%#x: %d embeddings donating, %d from Run", c.name, v, accept, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s/%s accept=%#x: embedding %d differs from Run's", c.name, v, accept, i)
				}
			}
		}
	}
	return donated
}

// TestDonationPartitionsTheSearch: on the hand-made fixture's star4 and
// tritail, which have interior levels below the root, taking every
// offer, none, or every other one enumerates exactly the full run's
// embeddings, and only refusing them all donates nothing.
func TestDonationPartitionsTheSearch(t *testing.T) {
	g, queries := leafFixture(t)
	for _, lq := range queries[2:4] {
		f := newFixture(t, lq.q, g, filter.LDF)
		if n := checkDonation(t, f, lq, ^uint64(0)); n == 0 {
			t.Errorf("%s: taking every offer donated nothing", lq.name)
		}
		if n := checkDonation(t, f, lq, 0); n != 0 {
			t.Errorf("%s: refusing every offer donated %d tasks", lq.name, n)
		}
		if n := checkDonation(t, f, lq, 0xaaaaaaaaaaaaaaaa); n == 0 {
			t.Errorf("%s: taking every other offer donated nothing", lq.name)
		}
	}
}

// FuzzDonation drives donation over random small (query, data) pairs,
// every local-candidate method, failing sets, adaptive order and VF2++,
// with the offers taken or refused by the fuzz input: the tasks a
// donating search leaves behind and the search itself enumerate exactly
// Engine.Run's multiset.
func FuzzDonation(f *testing.F) {
	f.Add(int64(1), uint8(20), uint8(60), uint8(1), uint8(4), ^uint64(0))
	f.Add(int64(7), uint8(30), uint8(40), uint8(1), uint8(5), uint64(0x5555))
	f.Add(int64(42), uint8(12), uint8(255), uint8(2), uint8(3), uint64(0xf0f0f0f0))
	f.Fuzz(func(t *testing.T, seed int64, nv, ne, nl, qn uint8, accept uint64) {
		rng := rand.New(rand.NewSource(seed))
		V := 8 + int(nv)%40
		g := testutil.RandomGraph(rng, V, V+int(ne), 1+int(nl)%3)
		q := testutil.RandomConnectedQuery(rng, g, 3+int(qn)%4)
		if q == nil {
			t.Skip("no connected query")
		}
		if cand, err := filter.Run(filter.GQL, q, g); err != nil || filter.AnyEmpty(cand) {
			t.Skip("empty candidate set")
		}
		f := newFixture(t, q, g, filter.GQL)
		// Every config runs the search twice per variant: keep it small.
		if f.run(t, Options{Local: Intersect, Homomorphism: true}).Nodes > 20000 {
			t.Skip("search too large")
		}
		checkDonation(t, f, leafQuery{q: q}, accept)
	})
}
