package service

import (
	"container/list"
	"encoding/binary"
	"hash/fnv"
	"sync"

	"subgraphmatching/internal/core"
	"subgraphmatching/internal/graph"
	"subgraphmatching/internal/obs"
)

// planKey identifies one cached preprocessing plan. Two requests share a
// plan exactly when they target the same registered graph *generation*,
// their query graphs serialize identically (labels + sorted adjacency —
// graph.FingerprintOf), and every plan-shaping configuration knob
// matches. The generation component means hot-swapping a graph never
// serves a stale plan: old keys simply stop being produced and their
// entries age out of the LRU.
type planKey struct {
	graph   string
	gen     uint64
	queryFP graph.Fingerprint
	cfgHash uint64
	// races marks the Optimized preset's plans, whose order a race may
	// change (target.races): a Custom tuple of the same configuration
	// asks for its order and gets a plan of its own.
	races bool
}

// configHash digests every Config field that influences the plan's
// contents. The preprocessing worker count is not among them: a plan is
// identical at every worker count, so a plan built by a parallel=4
// request serves a later parallel=1 request. The external-engine flags
// are folded in too: they never reach the cache on the Submit path
// (external engines have no plan), but SubmitBatch groups requests by
// this hash and must not co-group a pipeline config with a
// Glasgow/VF2/Ullmann one.
func configHash(cfg core.Config) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	u64 := func(x uint64) {
		binary.LittleEndian.PutUint64(buf[:], x)
		h.Write(buf[:])
	}
	flag := func(b bool) {
		if b {
			u64(1)
		} else {
			u64(0)
		}
	}
	u64(uint64(cfg.Filter))
	u64(uint64(cfg.Order))
	u64(uint64(cfg.Local))
	u64(uint64(cfg.Kernel))
	flag(cfg.FailingSets)
	flag(cfg.Adaptive)
	flag(cfg.VF2PPRules)
	flag(cfg.Homomorphism)
	flag(cfg.SymmetryBreaking)
	flag(cfg.CountTail)
	flag(cfg.UseGlasgow)
	flag(cfg.UseVF2)
	flag(cfg.UseUllmann)
	u64(uint64(cfg.GlasgowMemoryBudget))
	u64(uint64(len(cfg.FixedOrder)))
	for _, v := range cfg.FixedOrder {
		u64(uint64(v))
	}
	return h.Sum64()
}

// CacheStats is a point-in-time snapshot of the plan cache's accounting.
// Every successful insert is eventually accounted for exactly once:
// it is either still resident (Size), was evicted by the LRU
// (Evictions), or was removed by a hot-swap/unregister purge or after a
// run on it failed internally (Purged).
// SizeBytes is the resident plans' summed Plan.SizeBytes and never
// exceeds BudgetBytes when a budget is set.
type CacheStats struct {
	Size        int    `json:"size"`
	Capacity    int    `json:"capacity"`
	SizeBytes   int64  `json:"size_bytes"`
	BudgetBytes int64  `json:"budget_bytes"`
	Hits        uint64 `json:"hits"`
	Misses      uint64 `json:"misses"`
	Evictions   uint64 `json:"evictions"`
	Purged      uint64 `json:"purged"`
}

// planCache is a mutex-guarded LRU over read-only *core.Plan values.
// Entries are shared: a get returns the same plan pointer to every
// caller, which is safe because MatchPlan never mutates a plan.
//
// Eviction is byte-budgeted: each entry is charged its Plan.SizeBytes
// (plans are CSR-dominated, so entry counts hide a 1000× spread in
// actual memory), and inserts evict from the LRU tail until the
// resident total fits maxBytes again. A single plan larger than the
// whole budget is admitted and then immediately evicted by the same
// loop — the insert still returns the plan to its builder, the cache
// just declines to retain it, and the accounting records a normal
// eviction rather than wedging. The entry cap is kept as a secondary
// bound on map/list overhead (0 = entries unbounded, bytes only).
type planCache struct {
	mu       sync.Mutex
	cap      int        // max entries (0 = unbounded)
	maxBytes int64      // byte budget (0 = unbounded)
	bytes    int64      // resident total, maintained by add/evict/purge
	ll       *list.List // front = most recently used
	entries  map[planKey]*list.Element
	// liveGen reports the named graph's current registry generation
	// (false when the name is not registered). add consults it under
	// c.mu to fence stale inserts: a request that resolved a graph
	// before a hot-swap/unregister must not insert its (now
	// unreachable) plan after the purge ran, pinning dead plan memory
	// in an LRU slot. The registry is updated before purgeGraph runs
	// and add/purgeGraph serialize on c.mu, so an insert either
	// precedes the purge (and is removed by it) or observes the new
	// generation (and drops itself). Reading the live generation keeps
	// the fence stateless per graph name — the previous design kept a
	// per-name floor map that grew without bound under
	// register/unregister churn with ephemeral names. nil disables the
	// fence (standalone caches without a registry).
	liveGen func(name string) (uint64, bool)
	// hits/misses/evictions/purged are obs counters so the cache's
	// accounting IS the /metrics families — New swaps in the
	// registry-owned instances; a standalone cache (tests) gets
	// unregistered ones.
	hits      *obs.Counter
	misses    *obs.Counter
	evictions *obs.Counter
	purged    *obs.Counter
}

type cacheEntry struct {
	key  planKey
	plan *core.Plan
	size int64 // the plan's Plan.SizeBytes (plans are immutable; swap replaces both)
}

// newPlanCache builds a cache bounded by maxEntries and maxBytes (0
// leaves the respective bound off). Both bounds off — or a negative
// entry cap — disables caching entirely.
func newPlanCache(maxEntries int, maxBytes int64) *planCache {
	if maxEntries < 0 || (maxEntries == 0 && maxBytes <= 0) {
		return nil // caching disabled
	}
	if maxBytes < 0 {
		maxBytes = 0
	}
	return &planCache{
		cap: maxEntries, maxBytes: maxBytes, ll: list.New(),
		entries: make(map[planKey]*list.Element),
		hits:    &obs.Counter{}, misses: &obs.Counter{},
		evictions: &obs.Counter{}, purged: &obs.Counter{},
	}
}

func (c *planCache) get(k planKey) (*core.Plan, bool) { return c.lookup(k, true) }

// recheck is get for a caller whose miss on k is already counted:
// finding the plan now counts a hit, still not finding it counts
// nothing more.
func (c *planCache) recheck(k planKey) (*core.Plan, bool) { return c.lookup(k, false) }

func (c *planCache) lookup(k planKey, countMiss bool) (*core.Plan, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[k]; ok {
		c.ll.MoveToFront(e)
		c.hits.Inc()
		return e.Value.(*cacheEntry).plan, true
	}
	if countMiss {
		c.misses.Inc()
	}
	return nil, false
}

// add inserts a freshly built plan. If a concurrent request already
// inserted the same key (the benign dogpile on a cold key), the existing
// entry wins so every caller converges on one shared plan.
func (c *planCache) add(k planKey, p *core.Plan) *core.Plan {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.liveGen != nil {
		if gen, ok := c.liveGen(k.graph); !ok || k.gen != gen {
			// The graph was swapped or unregistered while this plan was
			// being built; no future request can produce this key, so
			// don't let the dead plan occupy an LRU slot.
			return p
		}
	}
	if e, ok := c.entries[k]; ok {
		c.ll.MoveToFront(e)
		return e.Value.(*cacheEntry).plan
	}
	size := p.SizeBytes()
	c.entries[k] = c.ll.PushFront(&cacheEntry{key: k, plan: p, size: size})
	c.bytes += size
	c.evictLocked()
	return p
}

// swap puts next in place of prev, the plan an order race started from,
// if k still holds prev: the entry keeps its place in the LRU and is
// charged next's size, and the tail is evicted if that overruns a
// bound. It is no insert, so size + evictions + purged still counts
// inserts. An entry that no longer holds prev — evicted, purged or
// rebuilt while the race ran — is left alone, and next serves only the
// request that raced.
func (c *planCache) swap(k planKey, prev, next *core.Plan) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[k]
	if !ok || e.Value.(*cacheEntry).plan != prev {
		return
	}
	ent := e.Value.(*cacheEntry)
	size := next.SizeBytes()
	c.bytes += size - ent.size
	ent.plan, ent.size = next, size
	c.evictLocked()
}

// evictLocked evicts from the LRU tail until both bounds hold.
func (c *planCache) evictLocked() {
	for c.overLimitLocked() {
		oldest := c.ll.Back()
		ent := oldest.Value.(*cacheEntry)
		c.ll.Remove(oldest)
		delete(c.entries, ent.key)
		c.bytes -= ent.size
		c.evictions.Inc()
	}
}

// overLimitLocked reports whether either bound is exceeded. The list
// shrinks by one entry per eviction, so the caller's loop terminates at
// the latest when the cache is empty (the oversized-single-plan case:
// admitted, then evicted by its own insert).
func (c *planCache) overLimitLocked() bool {
	if c.ll.Len() == 0 {
		return false
	}
	if c.cap > 0 && c.ll.Len() > c.cap {
		return true
	}
	return c.maxBytes > 0 && c.bytes > c.maxBytes
}

// purgeGraph drops every entry for the named graph built against a
// generation below `before`, counting each removal into the purged
// counter (evictions stay budget-pressure-only, so size + evictions +
// purged always reconciles against successful inserts). Hot swap
// passes the new generation; unregister passes the removed generation
// + 1. A concurrent miss on the old generation cannot re-add its plan
// after the purge: add re-reads the live registry generation under the
// same mutex (see planCache.liveGen).
func (c *planCache) purgeGraph(name string, before uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var next *list.Element
	for e := c.ll.Front(); e != nil; e = next {
		next = e.Next()
		if ent := e.Value.(*cacheEntry); ent.key.graph == name && ent.key.gen < before {
			c.purgeLocked(e)
		}
	}
}

// remove purges the entry for k if it still holds p; a concurrent
// rebuild under the same key is left alone.
func (c *planCache) remove(k planKey, p *core.Plan) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[k]; ok && e.Value.(*cacheEntry).plan == p {
		c.purgeLocked(e)
	}
}

// purgeLocked drops a resident entry, counting it into the purged
// counter.
func (c *planCache) purgeLocked(e *list.Element) {
	ent := e.Value.(*cacheEntry)
	c.ll.Remove(e)
	delete(c.entries, ent.key)
	c.bytes -= ent.size
	c.purged.Inc()
}

// sizeBytes reports the resident byte total (for the gauge).
func (c *planCache) sizeBytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

func (c *planCache) stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Size: c.ll.Len(), Capacity: c.cap,
		SizeBytes: c.bytes, BudgetBytes: c.maxBytes,
		Hits: c.hits.Value(), Misses: c.misses.Value(),
		Evictions: c.evictions.Value(), Purged: c.purged.Value(),
	}
}
