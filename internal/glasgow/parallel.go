package glasgow

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"subgraphmatching/internal/bitset"
	"subgraphmatching/internal/graph"
)

type atomicBool = atomic.Bool

// solveParallel implements pGlasgow's search splitting: the first
// branching variable (MRV on the initial domains) has its domain
// partitioned round-robin across workers, each of which runs an
// independent sequential solver over the shared adjacency bitsets with
// its own domain trail. A shared counter enforces the embedding cap
// exactly; a shared flag stops siblings once a worker aborts.
func solveParallel(template *solver, workers int) {
	nQ := template.q.NumVertices()

	// Split variable: smallest initial domain.
	splitVar := 0
	best := -1
	for u := 0; u < nQ; u++ {
		if c := template.domains[0][u].Count(); best < 0 || c < best {
			splitVar, best = u, c
		}
	}
	// Values in the sequential solver's order (degree-descending) so the
	// round-robin shares are balanced across easy and hard values.
	var values []uint32
	template.domains[0][splitVar].ForEach(func(v uint32) bool {
		values = append(values, v)
		return true
	})
	sort.Slice(values, func(i, j int) bool {
		di, dj := template.g.Degree(values[i]), template.g.Degree(values[j])
		if di != dj {
			return di > dj
		}
		return values[i] < values[j]
	})
	if workers > len(values) {
		workers = len(values)
	}
	if workers < 1 {
		workers = 1
	}

	var (
		accepted  atomic.Uint64
		nodes     atomic.Uint64
		timedOut  atomic.Bool
		limitHit  atomic.Bool
		matchLock sync.Mutex
		wg        sync.WaitGroup
	)
	opts := template.opts
	// The caller's cancel flag, when supplied, doubles as the workers'
	// shared stop signal (see Options.Cancel).
	stop := opts.Cancel
	if stop == nil {
		stop = new(atomic.Bool)
	}
	deadline := time.Time{}
	if opts.TimeLimit > 0 {
		deadline = time.Now().Add(opts.TimeLimit)
	}

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ws := &solver{
				q: template.q, g: template.g,
				adj: template.adj, qadj: template.qadj,
				stats:    &Stats{},
				deadline: deadline,
				cancel:   stop,
			}
			ws.opts = opts
			ws.opts.MaxEmbeddings = 0 // the shared counter enforces the cap
			ws.opts.OnMatch = func(m []uint32) bool {
				if stop.Load() {
					return false
				}
				n := accepted.Add(1)
				if opts.MaxEmbeddings > 0 && n > opts.MaxEmbeddings {
					accepted.Add(^uint64(0))
					limitHit.Store(true)
					stop.Store(true)
					return false
				}
				if opts.OnMatch != nil {
					matchLock.Lock()
					cont := opts.OnMatch(m)
					matchLock.Unlock()
					if !cont {
						// A declined embedding gives its reservation back.
						accepted.Add(^uint64(0))
						stop.Store(true)
						return false
					}
				}
				if opts.MaxEmbeddings > 0 && n == opts.MaxEmbeddings {
					limitHit.Store(true)
					stop.Store(true)
					return false
				}
				return true
			}
			ws.initWorkerDomains(template, graph.Vertex(splitVar), values, w, workers)
			ws.search(0)
			nodes.Add(ws.stats.Nodes)
			if ws.stats.TimedOut {
				timedOut.Store(true)
			}
		}(w)
	}
	wg.Wait()

	template.stats.Embeddings = accepted.Load()
	if opts.MaxEmbeddings > 0 && template.stats.Embeddings > opts.MaxEmbeddings {
		template.stats.Embeddings = opts.MaxEmbeddings
	}
	template.stats.Nodes = nodes.Load()
	template.stats.TimedOut = timedOut.Load()
	template.stats.LimitHit = limitHit.Load()
}

// initWorkerDomains builds the worker's domain trail: level 0 copies the
// template's initial domains, with the split variable's domain reduced
// to this worker's round-robin share.
func (s *solver) initWorkerDomains(template *solver, splitVar graph.Vertex, values []uint32, w, workers int) {
	nQ, nG := s.q.NumVertices(), s.g.NumVertices()
	s.domains = make([][]*bitset.Set, nQ+1)
	for lvl := range s.domains {
		s.domains[lvl] = make([]*bitset.Set, nQ)
		for u := range s.domains[lvl] {
			s.domains[lvl][u] = bitset.New(nG)
		}
	}
	for u := 0; u < nQ; u++ {
		if graph.Vertex(u) == splitVar {
			for i := w; i < len(values); i += workers {
				s.domains[0][u].Set(values[i])
			}
		} else {
			s.domains[0][u].CopyFrom(template.domains[0][u])
		}
	}
	s.assigned = make([]bool, nQ)
	s.assignment = make([]uint32, nQ)
	s.byDegree = make([][]uint32, nQ)
}
