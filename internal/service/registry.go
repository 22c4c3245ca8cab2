package service

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"subgraphmatching/internal/core"
	"subgraphmatching/internal/graph"
)

// maxGraphNameLen bounds registry names so a transport can safely embed
// them in URLs and log lines.
const maxGraphNameLen = 128

// GraphInfo describes one registered data graph.
type GraphInfo struct {
	Name     string
	Vertices int
	Edges    int
	Labels   int
	// Generation increments every time the name is (re)registered. Plan
	// cache keys embed it, so swapping a graph atomically invalidates
	// every cached plan built against the old version.
	Generation   uint64
	RegisteredAt time.Time
	// IndexBytes is the memory held by the indexes the graph builds
	// lazily (graph.IndexBytes, today the NLF index): 0 until the first
	// filter run against it.
	IndexBytes int64 `json:"index_bytes"`
}

// graphEntry is an immutable registry slot; replacement swaps the whole
// entry under the registry lock, so in-flight requests holding the old
// entry keep a consistent (graph, generation) pair.
type graphEntry struct {
	name string
	g    *graph.Graph
	gen  uint64
	at   time.Time
	// workloads caches the metrics workload of each preset run against
	// the graph, indexed by core.Algorithm, and at customSlot of the
	// Custom configurations: a request resolves its (graph, algo)
	// children once per registration. The workloads themselves outlive
	// the entry, so /stats and /metrics keep counting across a
	// replacement.
	workloads [customSlot + 1]atomic.Pointer[workload]
}

// customSlot is the workloads slot of Custom requests; an Algorithm at
// or past it is not cached.
const customSlot = 16

// workload returns the request's metrics workload against this graph.
func (e *graphEntry) workload(m *serviceMetrics, req *Request) *workload {
	slot := customSlot
	if req.Custom == nil {
		slot = int(req.Algorithm)
		if slot >= customSlot {
			return m.workload(e.name, req.algoName())
		}
	}
	return bind(&e.workloads[slot], func() *workload { return m.workload(e.name, req.algoName()) })
}

func (e *graphEntry) info() GraphInfo {
	return GraphInfo{
		Name: e.name, Vertices: e.g.NumVertices(), Edges: e.g.NumEdges(),
		Labels: e.g.NumLabels(), Generation: e.gen, RegisteredAt: e.at,
		IndexBytes: e.g.IndexBytes(),
	}
}

// registry is the named, hot-swappable set of data graphs. Reads vastly
// outnumber writes (every request resolves its graph; registration is
// an operator action), hence the RWMutex.
type registry struct {
	mu      sync.RWMutex
	graphs  map[string]*graphEntry
	nextGen uint64
}

func (r *registry) register(name string, g *graph.Graph, replace bool, now time.Time) (GraphInfo, error) {
	if name == "" || len(name) > maxGraphNameLen {
		return GraphInfo{}, fmt.Errorf("%w: %q", ErrInvalidGraphName, name)
	}
	if g == nil {
		return GraphInfo{}, fmt.Errorf("service: %w", core.ErrNilGraph)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.graphs == nil {
		r.graphs = make(map[string]*graphEntry)
	}
	if _, ok := r.graphs[name]; ok && !replace {
		return GraphInfo{}, fmt.Errorf("%w: %q", ErrDuplicateGraph, name)
	}
	r.nextGen++
	e := &graphEntry{name: name, g: g, gen: r.nextGen, at: now}
	r.graphs[name] = e
	return e.info(), nil
}

// restore installs a recovered graph under an explicit generation and
// advances the generation counter past it — the durable-store recovery
// path. Names with a lower-or-equal live generation are overwritten
// (idempotent WAL replay); a higher live generation wins.
func (r *registry) restore(name string, g *graph.Graph, gen uint64, at time.Time) (GraphInfo, error) {
	if name == "" || len(name) > maxGraphNameLen {
		return GraphInfo{}, fmt.Errorf("%w: %q", ErrInvalidGraphName, name)
	}
	if g == nil {
		return GraphInfo{}, fmt.Errorf("service: %w", core.ErrNilGraph)
	}
	if gen == 0 {
		return GraphInfo{}, fmt.Errorf("service: restore %q: generation must be positive", name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.graphs == nil {
		r.graphs = make(map[string]*graphEntry)
	}
	if cur, ok := r.graphs[name]; ok && cur.gen > gen {
		return GraphInfo{}, fmt.Errorf("service: restore %q: generation %d behind live %d", name, gen, cur.gen)
	}
	if gen > r.nextGen {
		r.nextGen = gen
	}
	e := &graphEntry{name: name, g: g, gen: gen, at: at}
	r.graphs[name] = e
	return e.info(), nil
}

// advanceGeneration raises the generation counter to at least gen, so
// post-recovery registrations are strictly newer than anything the
// durable log ever issued — including names that were unregistered.
func (r *registry) advanceGeneration(gen uint64) {
	r.mu.Lock()
	if gen > r.nextGen {
		r.nextGen = gen
	}
	r.mu.Unlock()
}

// unregister removes the named graph, returning the removed entry's
// generation so the caller can fence late plan-cache inserts against it.
func (r *registry) unregister(name string) (uint64, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.graphs[name]
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrUnknownGraph, name)
	}
	delete(r.graphs, name)
	return e.gen, nil
}

func (r *registry) get(name string) (*graphEntry, error) {
	r.mu.RLock()
	e, ok := r.graphs[name]
	r.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownGraph, name)
	}
	return e, nil
}

func (r *registry) list() []GraphInfo {
	r.mu.RLock()
	out := make([]GraphInfo, 0, len(r.graphs))
	for _, e := range r.graphs {
		out = append(out, e.info())
	}
	r.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
