// Package flight is the serving layer's always-on flight recorder: a
// live registry of in-flight requests (what phase each is in, for how
// long) plus a bounded, latency-bucketed ring of recently completed
// request spans. Retention is biased toward what an operator debugging a
// latency regression actually needs — within each latency bucket the
// slowest records are kept, and errored requests are always kept in
// their own ring — so the interesting traces survive without logging
// every request. The slow-query log is one subscriber of the recorder,
// not a separate instrumentation path.
package flight

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"subgraphmatching/internal/obs"
)

// BucketBounds are the latency bucket upper bounds; a final unbounded
// bucket catches everything slower.
var BucketBounds = []time.Duration{
	time.Millisecond,
	10 * time.Millisecond,
	100 * time.Millisecond,
	time.Second,
	10 * time.Second,
}

// Defaults for NewRecorder.
const (
	DefaultPerBucket = 8
	DefaultErrorCap  = 64
)

// SpanSource yields a completed request's span tree. The recorder asks
// for it only when it keeps the record, so a request that is neither
// slow for its band nor failed never builds one. A *obs.Span is its own
// source.
type SpanSource interface {
	Trace() *obs.Span
}

// Record is one completed request as retained by the recorder.
type Record struct {
	ID      uint64        `json:"id"`
	Graph   string        `json:"graph,omitempty"`
	Algo    string        `json:"algo,omitempty"`
	Start   time.Time     `json:"start"`
	Latency time.Duration `json:"latency_ns"`
	Err     string        `json:"error,omitempty"`
	Span    *obs.Span     `json:"span,omitempty"`
	// Payload carries consumer-specific context (the slow-query log's
	// record); opaque to the recorder.
	Payload any `json:"-"`
}

// Flight is the handle for one in-flight request. SetPhase is
// goroutine-safe and costs one atomic store, so the serving path can
// mark phase transitions freely.
type Flight struct {
	r     *Recorder
	id    uint64
	graph string
	algo  string
	start time.Time
	phase atomic.Pointer[string]
	done  atomic.Bool
	// ctx, set by StartWatch before the flight is registered, is the
	// request's context. The recorder's watcher, finding the flight
	// still in flight, sets armed and registers stopWatch, a
	// context.AfterFunc that sets cancel once ctx ends; armed and
	// stopWatch are read and written under the recorder's lock.
	ctx       context.Context
	armed     bool
	stopWatch func() bool
	cancel    atomic.Bool
}

// ID returns the flight's recorder-unique id.
func (f *Flight) ID() uint64 { return f.id }

// phaseNames are the labels the serving path sets: SetPhase stores a
// pointer into this table for them, and allocates only for another.
var phaseNames = [...]string{"start", "admission", "plan", "enumerate", "groups"}

// SetPhase labels what the request is doing right now ("queued",
// "plan", "enumerate", ...).
func (f *Flight) SetPhase(p string) {
	for i := range phaseNames {
		if phaseNames[i] == p {
			f.phase.Store(&phaseNames[i])
			return
		}
	}
	label := p // escapes here, not on the known labels' path
	f.phase.Store(&label)
}

// Phase returns the current phase label.
func (f *Flight) Phase() string {
	if p := f.phase.Load(); p != nil {
		return *p
	}
	return ""
}

// Cancelled is the flag set once the context the flight was started
// with by StartWatch has ended — from the watcher's first tick of the
// flight on: a search polling it stops. It is the flight's own, so it
// may serve one search as core.Limits.Cancel.
func (f *Flight) Cancelled() *atomic.Bool { return &f.cancel }

// Finish completes the flight: it leaves the in-flight registry, its
// latency is measured, and when the recorder keeps the record — slow
// for its latency band, or failed — the record carries the span tree
// span yields (nil for none), the error and the consumer payload. Every
// completion reaches the subscribers, with a span tree only when the
// record is kept. Finish is idempotent; calls after the first are
// ignored. It returns the record, nil when none was made.
func (f *Flight) Finish(span SpanSource, err error, payload any) *Record {
	return f.finish(time.Since(f.start), span, err, payload)
}

func (f *Flight) finish(latency time.Duration, span SpanSource, err error, payload any) *Record {
	if f.done.Swap(true) {
		return nil
	}
	keep, subscribed := f.r.wants(latency)
	keep = keep || err != nil
	var rec *Record
	if keep || subscribed {
		rec = &Record{
			ID:      f.id,
			Graph:   f.graph,
			Algo:    f.algo,
			Start:   f.start,
			Latency: latency,
			Payload: payload,
		}
		if keep && span != nil {
			rec.Span = span.Trace()
		}
		if err != nil {
			rec.Err = err.Error()
		}
	}
	f.r.complete(f, latency, rec)
	return rec
}

// InflightInfo is the live view of one in-flight request.
type InflightInfo struct {
	ID      uint64        `json:"id"`
	Graph   string        `json:"graph,omitempty"`
	Algo    string        `json:"algo,omitempty"`
	Phase   string        `json:"phase"`
	Start   time.Time     `json:"start"`
	Elapsed time.Duration `json:"elapsed_ns"`
}

// bucket retains the slowest records of one latency band.
type bucket struct {
	count   uint64    // total completions that landed here
	records []*Record // sorted slowest-first, len <= perBucket
}

// slot is where a record of the given latency goes in the band's
// slowest-first list; it is kept when the slot is below perBucket.
func (b *bucket) slot(latency time.Duration) int {
	for i, old := range b.records {
		if latency > old.Latency {
			return i
		}
	}
	return len(b.records)
}

// BucketSnapshot is the exported view of one latency bucket.
type BucketSnapshot struct {
	// Label names the band, e.g. "<10ms" or ">=10s".
	Label string `json:"label"`
	// Count is the total number of requests that completed in the band
	// (not just the retained ones).
	Count uint64 `json:"count"`
	// Records are the retained slowest requests of the band,
	// slowest-first.
	Records []*Record `json:"records,omitempty"`
}

// Recorder is the flight recorder. The zero value is not ready; use
// NewRecorder.
type Recorder struct {
	mu        sync.Mutex
	nextID    uint64
	inflight  map[uint64]*Flight
	buckets   []bucket
	errs      []*Record // ring, newest overwrite oldest
	errNext   int
	errCap    int
	perBucket int
	subs      []func(*Record)
	// watching says the watcher goroutine runs (see watch).
	watching bool
}

// NewRecorder builds a recorder keeping the slowest perBucket records
// per latency band and the last errCap errored requests (<=0 selects
// the defaults).
func NewRecorder(perBucket, errCap int) *Recorder {
	if perBucket <= 0 {
		perBucket = DefaultPerBucket
	}
	if errCap <= 0 {
		errCap = DefaultErrorCap
	}
	return &Recorder{
		inflight:  make(map[uint64]*Flight),
		buckets:   make([]bucket, len(BucketBounds)+1),
		errCap:    errCap,
		perBucket: perBucket,
	}
}

// Start registers a new in-flight request and returns its handle.
func (r *Recorder) Start(graph, algo string) *Flight {
	return r.StartWatch(nil, graph, algo)
}

// StartWatch is Start for a request that runs one search under ctx:
// a flight the watcher finds still in flight at one of its ticks, every
// watchEvery, gets a context.AfterFunc on ctx that sets its Cancelled
// flag, stopped when the flight finishes. A request shorter than a tick
// pays for no registration, one that runs longer pays once, and a
// cancel reaches a search at most one tick after it starts. A nil ctx
// is not watched.
func (r *Recorder) StartWatch(ctx context.Context, graph, algo string) *Flight {
	f := &Flight{r: r, graph: graph, algo: algo, start: time.Now(), ctx: ctx}
	f.phase.Store(&phaseNames[0])
	r.mu.Lock()
	r.nextID++
	f.id = r.nextID
	r.inflight[f.id] = f
	if f.ctx != nil && !r.watching {
		r.watching = true
		go r.watch()
	}
	r.mu.Unlock()
	return f
}

// watchEvery is the watcher's period. It is the longest a cancel waits
// to reach a search, beside the engines' own polling interval, and it
// sets how often a busy recorder wakes a goroutine: polling every
// context each 2 ms instead cost serve-cold 4 % of its throughput on a
// 2-CPU box.
const watchEvery = 10 * time.Millisecond

// watchIdleTicks is how many ticks in a row with no watched flight end
// the watcher; the next StartWatch of a watched flight starts another.
const watchIdleTicks = 10

// watch is the watcher goroutine: one per recorder while watched flights
// are in flight. It arms the watch of every watched flight it finds, so
// the per-request context.AfterFunc registration — its allocations and
// its two locks of the parent context — falls only on the requests that
// outlive a tick.
func (r *Recorder) watch() {
	t := time.NewTicker(watchEvery)
	defer t.Stop()
	idle := 0
	var arm []*Flight
	for range t.C {
		r.mu.Lock()
		watched := 0
		arm = arm[:0]
		for _, f := range r.inflight {
			if f.ctx == nil {
				continue
			}
			watched++
			if !f.armed {
				f.armed = true
				arm = append(arm, f)
			}
		}
		if watched > 0 {
			idle = 0
		} else if idle++; idle >= watchIdleTicks {
			r.watching = false
			r.mu.Unlock()
			return
		}
		r.mu.Unlock()
		// The registration calls into the request's context, so it runs
		// outside the lock; a flight that finished meanwhile drops it.
		for _, f := range arm {
			stop := context.AfterFunc(f.ctx, func() { f.cancel.Store(true) })
			r.mu.Lock()
			_, live := r.inflight[f.id]
			if live {
				f.stopWatch = stop
			}
			r.mu.Unlock()
			if !live {
				stop()
			}
		}
	}
}

// bucketIndex maps a latency to its band.
func bucketIndex(d time.Duration) int {
	for i, b := range BucketBounds {
		if d < b {
			return i
		}
	}
	return len(BucketBounds)
}

// BucketLabel names band i as rendered in snapshots.
func BucketLabel(i int) string {
	if i < len(BucketBounds) {
		return "<" + BucketBounds[i].String()
	}
	return ">=" + BucketBounds[len(BucketBounds)-1].String()
}

// wants reports whether a completion of the given latency would be
// kept in its band and whether anyone subscribes — whether the finisher
// has to make a record, and a span tree for it, at all.
func (r *Recorder) wants(latency time.Duration) (keep, subscribed bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.buckets[bucketIndex(latency)].slot(latency) < r.perBucket, len(r.subs) > 0
}

// complete takes a finished flight out of the registry, stops its
// watch, counts it in its band and, when the finisher made a record,
// moves it into retention and fans it out to the subscribers (outside
// the lock: a slow subscriber must not stall the serving path's
// recorder).
func (r *Recorder) complete(f *Flight, latency time.Duration, rec *Record) {
	r.mu.Lock()
	delete(r.inflight, f.id)
	if stop := f.stopWatch; stop != nil {
		defer stop() // after the unlock: it calls into the request's context
	}
	b := &r.buckets[bucketIndex(latency)]
	b.count++
	if rec == nil {
		r.mu.Unlock()
		return
	}
	// Insert keeping slowest-first order, then clip to the cap. The
	// slice is tiny (perBucket ~ 8), so a linear insert is cheaper than
	// anything clever. The slot is looked up again: another completion
	// may have taken it since wants.
	if pos := b.slot(latency); pos < r.perBucket {
		b.records = append(b.records, nil)
		copy(b.records[pos+1:], b.records[pos:])
		b.records[pos] = rec
		if len(b.records) > r.perBucket {
			b.records = b.records[:r.perBucket]
		}
	}
	if rec.Err != "" {
		if len(r.errs) < r.errCap {
			r.errs = append(r.errs, rec)
		} else {
			r.errs[r.errNext] = rec
		}
		r.errNext = (r.errNext + 1) % r.errCap
	}
	subs := r.subs
	r.mu.Unlock()
	for _, fn := range subs {
		fn(rec)
	}
}

// Subscribe registers fn to receive every completed record, called
// synchronously on the finishing request's goroutine. Subscribers must
// be registered before serving starts; registration is not synchronized
// against in-flight completions.
func (r *Recorder) Subscribe(fn func(*Record)) {
	r.mu.Lock()
	r.subs = append(r.subs, fn)
	r.mu.Unlock()
}

// InflightCount returns the number of requests currently in flight.
func (r *Recorder) InflightCount() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.inflight)
}

// Inflight lists the in-flight requests, oldest first.
func (r *Recorder) Inflight() []InflightInfo {
	now := time.Now()
	r.mu.Lock()
	out := make([]InflightInfo, 0, len(r.inflight))
	for _, f := range r.inflight {
		out = append(out, InflightInfo{
			ID:      f.id,
			Graph:   f.graph,
			Algo:    f.algo,
			Phase:   f.Phase(),
			Start:   f.start,
			Elapsed: now.Sub(f.start),
		})
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Start.Before(out[j].Start) })
	return out
}

// Snapshot returns the retention buckets, fastest band first.
func (r *Recorder) Snapshot() []BucketSnapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]BucketSnapshot, len(r.buckets))
	for i := range r.buckets {
		out[i] = BucketSnapshot{
			Label:   BucketLabel(i),
			Count:   r.buckets[i].count,
			Records: append([]*Record(nil), r.buckets[i].records...),
		}
	}
	return out
}

// Errors returns the retained errored requests, newest first.
func (r *Recorder) Errors() []*Record {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*Record, 0, len(r.errs))
	for i := 0; i < len(r.errs); i++ {
		idx := (r.errNext - 1 - i + r.errCap) % r.errCap
		if idx < len(r.errs) && r.errs[idx] != nil {
			out = append(out, r.errs[idx])
		}
	}
	return out
}

// Lookup finds a retained record by id (buckets first, then the error
// ring), nil if it aged out.
func (r *Recorder) Lookup(id uint64) *Record {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := range r.buckets {
		for _, rec := range r.buckets[i].records {
			if rec.ID == id {
				return rec
			}
		}
	}
	for _, rec := range r.errs {
		if rec != nil && rec.ID == id {
			return rec
		}
	}
	return nil
}
