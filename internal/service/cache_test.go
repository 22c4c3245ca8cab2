package service

import (
	"fmt"
	"testing"

	"subgraphmatching/internal/core"
	"subgraphmatching/internal/enumerate"
	"subgraphmatching/internal/filter"
	"subgraphmatching/internal/graph"
	"subgraphmatching/internal/testutil"
)

func testKey(graphName string, gen uint64, id uint64) planKey {
	return planKey{graph: graphName, gen: gen, cfgHash: id}
}

func TestPlanCacheDisabled(t *testing.T) {
	if c := newPlanCache(0, 0); c != nil {
		t.Fatal("capacity 0 must disable the cache")
	}
	if c := newPlanCache(-1, 0); c != nil {
		t.Fatal("negative capacity must disable the cache")
	}
}

func TestPlanCacheHitMissEvictionAccounting(t *testing.T) {
	c := newPlanCache(2, 0)
	k1, k2, k3 := testKey("g", 1, 1), testKey("g", 1, 2), testKey("g", 1, 3)
	p1, p2, p3 := &core.Plan{}, &core.Plan{}, &core.Plan{}

	if _, ok := c.get(k1); ok {
		t.Fatal("hit on empty cache")
	}
	c.add(k1, p1)
	c.add(k2, p2)
	if got, ok := c.get(k1); !ok || got != p1 {
		t.Fatal("k1 must hit with the inserted plan pointer")
	}
	// k1 is now MRU; inserting k3 must evict k2.
	c.add(k3, p3)
	if _, ok := c.get(k2); ok {
		t.Fatal("k2 must have been evicted (LRU)")
	}
	if got, ok := c.get(k1); !ok || got != p1 {
		t.Fatal("k1 must survive the eviction")
	}
	st := c.stats()
	// gets: miss(k1), hit(k1), miss(k2), hit(k1) → 2 hits, 2 misses.
	if st.Hits != 2 || st.Misses != 2 || st.Evictions != 1 {
		t.Fatalf("stats = %+v, want hits 2 misses 2 evictions 1", st)
	}
	if st.Size != 2 || st.Capacity != 2 {
		t.Fatalf("stats = %+v, want size 2 cap 2", st)
	}
}

func TestPlanCacheDogpileFirstInsertWins(t *testing.T) {
	c := newPlanCache(4, 0)
	k := testKey("g", 1, 1)
	first, second := &core.Plan{}, &core.Plan{}
	if got := c.add(k, first); got != first {
		t.Fatal("first add must return its own plan")
	}
	if got := c.add(k, second); got != first {
		t.Fatal("second add of the same key must converge on the first plan")
	}
}

func TestPlanCachePurgeGraph(t *testing.T) {
	c := newPlanCache(8, 0)
	c.add(testKey("a", 1, 1), &core.Plan{})
	c.add(testKey("a", 2, 2), &core.Plan{})
	c.add(testKey("b", 1, 3), &core.Plan{})
	c.purgeGraph("a", 3)
	st := c.stats()
	if st.Size != 1 {
		t.Fatalf("size after purge = %d, want 1", st.Size)
	}
	if _, ok := c.get(testKey("b", 1, 3)); !ok {
		t.Fatal("purge must not touch other graphs' entries")
	}
}

// TestPlanCachePurgeBlocksStaleInserts pins the hot-swap race fix: a
// request that resolved the old graph generation before the purge must
// not be able to insert its plan afterwards. The fence is the live
// registry generation (planCache.liveGen), consulted under the cache
// mutex — here faked by a map standing in for the registry.
func TestPlanCachePurgeBlocksStaleInserts(t *testing.T) {
	c := newPlanCache(8, 0)
	live := map[string]uint64{"a": 3, "b": 1}
	c.liveGen = func(name string) (uint64, bool) {
		gen, ok := live[name]
		return gen, ok
	}
	p := &core.Plan{}
	if got := c.add(testKey("a", 2, 1), p); got != p {
		t.Fatal("a dropped add must still hand back the caller's plan")
	}
	if st := c.stats(); st.Size != 0 {
		t.Fatalf("stale-generation insert must be dropped, size = %d", st.Size)
	}
	// The current generation and other graphs are unaffected.
	c.add(testKey("a", 3, 1), &core.Plan{})
	c.add(testKey("b", 1, 2), &core.Plan{})
	if st := c.stats(); st.Size != 2 {
		t.Fatalf("size = %d, want 2", st.Size)
	}
	// After an unregister the name has no live generation: every insert
	// for it is stale by definition.
	delete(live, "b")
	c.purgeGraph("b", 2)
	if got := c.add(testKey("b", 1, 9), p); got != p {
		t.Fatal("dropped add must hand back the caller's plan")
	}
	st := c.stats()
	if st.Size != 1 {
		t.Fatalf("unregistered-graph insert must be dropped, size = %d", st.Size)
	}
	if st.Purged != 1 {
		t.Fatalf("purged = %d, want 1", st.Purged)
	}
}

// TestPlanCachePurgeAccounting pins the size/evicted/purged
// reconciliation: every successful insert is eventually accounted for
// exactly once — resident, LRU-evicted, or purge-removed.
func TestPlanCachePurgeAccounting(t *testing.T) {
	c := newPlanCache(3, 0)
	inserts := 0
	add := func(name string, gen, id uint64) {
		c.add(testKey(name, gen, id), &core.Plan{})
		inserts++
	}
	add("a", 1, 1)
	add("a", 1, 2)
	add("b", 1, 3)
	add("b", 1, 4)       // evicts a/1/1
	add("a", 2, 5)       // evicts a/1/2
	c.purgeGraph("a", 3) // removes a/2/5
	st := c.stats()
	if st.Evictions != 2 {
		t.Fatalf("evictions = %d, want 2", st.Evictions)
	}
	if st.Purged != 1 {
		t.Fatalf("purged = %d, want 1", st.Purged)
	}
	if got := uint64(st.Size) + st.Evictions + st.Purged; got != uint64(inserts) {
		t.Fatalf("size(%d) + evictions(%d) + purged(%d) = %d, want %d inserts",
			st.Size, st.Evictions, st.Purged, got, inserts)
	}
}

// TestPlanCacheChurnStaysBounded pins the leak fix: under
// register/unregister churn with ephemeral graph names the cache must
// not accumulate per-name state. The old design kept a generation
// floor per name forever; the stateless liveGen fence keeps only the
// LRU entries themselves.
func TestPlanCacheChurnStaysBounded(t *testing.T) {
	c := newPlanCache(4, 0)
	live := map[string]uint64{}
	c.liveGen = func(name string) (uint64, bool) {
		gen, ok := live[name]
		return gen, ok
	}
	var gen uint64
	for i := 0; i < 1000; i++ {
		name := fmt.Sprintf("ephemeral-%d", i)
		gen++
		live[name] = gen // register
		c.add(testKey(name, gen, 1), &core.Plan{})
		c.add(testKey(name, gen, 2), &core.Plan{})
		removed := live[name]
		delete(live, name) // unregister
		c.purgeGraph(name, removed+1)
		// A straggler insert for the dead name must bounce.
		c.add(testKey(name, removed, 3), &core.Plan{})
	}
	st := c.stats()
	if st.Size != 0 {
		t.Fatalf("size after churn = %d, want 0 (every name was purged)", st.Size)
	}
	if got := uint64(st.Size) + st.Evictions + st.Purged; got != 2000 {
		t.Fatalf("size+evictions+purged = %d, want 2000 successful inserts", got)
	}
	// The only state the cache may keep is the LRU itself — no per-name
	// residue survives the churn.
	c.mu.Lock()
	entries, llLen := len(c.entries), c.ll.Len()
	c.mu.Unlock()
	if entries != 0 || llLen != 0 {
		t.Fatalf("internal maps not bounded: entries=%d list=%d", entries, llLen)
	}
}

func TestConfigHashDistinguishesPlanShapingKnobs(t *testing.T) {
	base := core.Config{Filter: filter.GQL, Local: enumerate.Intersect}
	seen := map[uint64]string{}
	record := func(name string, cfg core.Config) {
		h := configHash(cfg)
		if prev, ok := seen[h]; ok {
			t.Fatalf("configHash collision: %s == %s", name, prev)
		}
		seen[h] = name
	}
	record("base", base)
	cfg := base
	cfg.Filter = filter.CFL
	record("filter", cfg)
	cfg = base
	cfg.TreeSpace = true
	record("treespace", cfg)
	cfg = base
	cfg.FailingSets = true
	record("failingsets", cfg)
	cfg = base
	cfg.GQLRounds = 7
	record("rounds", cfg)
	cfg = base
	cfg.FixedOrder = []graph.Vertex{0, 1, 2}
	record("fixedorder", cfg)
	// A batch group runs every item under its first item's config, so two
	// Glasgow items with different budgets must not share a group.
	cfg = base
	cfg.GlasgowMemoryBudget = 1 << 20
	record("glasgowbudget", cfg)

	// Every filter — GQL included — builds identical candidate sets at
	// any worker count, so requests that differ only in their worker
	// counts must resolve to one key.
	g := testutil.PaperData()
	for _, algo := range []core.Algorithm{core.GraphQL, core.CFL} {
		one := Request{Algorithm: algo, Workers: 1}
		many := Request{Algorithm: algo, Parallel: 4, Workers: 8}
		if configHash(one.resolveConfig(g)) != configHash(many.resolveConfig(g)) {
			t.Fatalf("%v: worker counts split the plan key", algo)
		}
	}
}
