// Package obs is the repo's zero-dependency observability layer: a
// sharded atomic metrics registry with hand-rolled Prometheus text
// exposition, and a phase-span tracing structure the matching pipeline
// threads through preprocessing and enumeration.
//
// The paper's methodology is instrumentation — it explains each
// algorithm's behavior by attributing time to filtering, ordering and
// enumeration rather than by end-to-end clocks — and this package turns
// that methodology into a serving-time facility: every request carries a
// span breakdown, and the long-lived service exports counters, gauges
// and histograms a scraper can watch.
//
// Everything here is stdlib-only (go.mod stays dependency-free) and off
// the enumeration hot path: recording is a handful of atomic adds per
// request or per phase, never per search node.
package obs

import (
	"fmt"
	"hash/maphash"
	"io"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// MetricType is the Prometheus family type.
type MetricType string

const (
	TypeCounter   MetricType = "counter"
	TypeGauge     MetricType = "gauge"
	TypeHistogram MetricType = "histogram"
)

// Counter is a monotonically increasing uint64, safe for concurrent use.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a signed value that can move both ways.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adds delta (negative to decrease).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// DefaultDurationBuckets are the histogram bounds (seconds) used for
// latency families: 100µs up to ~100s in roughly-3x steps, bracketing
// everything from warm cache hits to the paper's five-minute budget.
var DefaultDurationBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 100,
}

// Histogram is a fixed-bucket histogram: bucket counts, sum and count
// are atomics, so concurrent Observe and scrape need no lock. The scrape
// derives _count from the bucket counts it loaded, which keeps the
// cumulative-bucket/_count invariant internally consistent per snapshot
// even while observations race.
type Histogram struct {
	bounds []float64 // ascending upper bounds, +Inf implicit
	counts []atomic.Uint64
	sum    atomic.Uint64 // float64 bits, CAS-add
}

func newHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = DefaultDurationBuckets
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram bounds not ascending at %d: %v", i, bounds))
		}
	}
	return &Histogram{
		bounds: bounds,
		counts: make([]atomic.Uint64, len(bounds)+1),
	}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	// Binary search for the first bound >= v; the tail slot is +Inf.
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// snapshot loads the bucket counts, total and sum.
func (h *Histogram) snapshot() (counts []uint64, total uint64, sum float64) {
	counts = make([]uint64, len(h.counts))
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
		total += counts[i]
	}
	return counts, total, math.Float64frombits(h.sum.Load())
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	var total uint64
	for i := range h.counts {
		total += h.counts[i].Load()
	}
	return total
}

// vecShards is the shard count of each labeled family's children map.
// Lookups hash the label values onto a shard, so concurrent recorders
// with different label sets contend on different locks; the values
// themselves are atomics, so the lock is held only for the map access.
const vecShards = 16

type vecShard[T any] struct {
	mu sync.RWMutex
	m  map[uint64][]*child[T] // by labelHash; a slice only on a collision
	_  [24]byte               // pad away from the neighboring shard's lock word
}

type child[T any] struct {
	values []string // label values, in label-name order
	metric *T
}

// vec is the generic sharded children store behind the labeled families.
type vec[T any] struct {
	labels []string
	newT   func() *T
	shards [vecShards]vecShard[T]
}

func newVec[T any](labels []string, newT func() *T) *vec[T] {
	v := &vec[T]{labels: labels, newT: newT}
	for i := range v.shards {
		v.shards[i].m = make(map[uint64][]*child[T])
	}
	return v
}

// vecKey joins label values with a separator that cannot appear
// unescaped: the exposition's sort key.
func vecKey(values []string) string {
	return strings.Join(values, "\x1f")
}

// labelSeed keys labelHash for the life of the process.
var labelSeed = maphash.MakeSeed()

// labelHash hashes label values, each followed by the separator, in a
// hasher on the stack: a lookup builds no key and allocates nothing.
func labelHash(values []string) uint64 {
	var h maphash.Hash
	h.SetSeed(labelSeed)
	for _, v := range values {
		h.WriteString(v)
		h.WriteByte(0x1f)
	}
	return h.Sum64()
}

// find returns the child with exactly these label values among those
// sharing their hash; the caller holds the shard's lock.
func (s *vecShard[T]) find(h uint64, values []string) *child[T] {
	for _, c := range s.m[h] {
		if slices.Equal(c.values, values) {
			return c
		}
	}
	return nil
}

// lookup returns the child for values and its hash, nil when it does
// not exist.
func (v *vec[T]) lookup(values []string) (*child[T], uint64) {
	h := labelHash(values)
	s := &v.shards[h%vecShards]
	s.mu.RLock()
	c := s.find(h, values)
	s.mu.RUnlock()
	return c, h
}

func (v *vec[T]) with(values ...string) *T {
	if len(values) != len(v.labels) {
		panic(fmt.Sprintf("obs: got %d label values for %d labels %v", len(values), len(v.labels), v.labels))
	}
	c, h := v.lookup(values)
	if c != nil {
		return c.metric
	}
	s := &v.shards[h%vecShards]
	s.mu.Lock()
	defer s.mu.Unlock()
	if c = s.find(h, values); c != nil {
		return c.metric
	}
	c = &child[T]{values: append([]string(nil), values...), metric: v.newT()}
	s.m[h] = append(s.m[h], c)
	return c.metric
}

// children returns every (labelValues, metric) pair, sorted by key for
// deterministic exposition.
func (v *vec[T]) children() []*child[T] {
	var out []*child[T]
	for i := range v.shards {
		s := &v.shards[i]
		s.mu.RLock()
		for _, cs := range s.m {
			out = append(out, cs...)
		}
		s.mu.RUnlock()
	}
	sort.Slice(out, func(i, j int) bool {
		return vecKey(out[i].values) < vecKey(out[j].values)
	})
	return out
}

// CounterVec is a counter family partitioned by label values.
type CounterVec struct {
	vec *vec[Counter]
}

// With returns (creating on first use) the child counter for the given
// label values, which must match the family's label names in count and
// order. A caller that records into the same child on every request
// keeps the returned pointer instead of looking it up each time.
func (c *CounterVec) With(values ...string) *Counter { return c.vec.with(values...) }

// Value returns the child's current count, 0 if the child was never
// touched — reading does not create children.
func (c *CounterVec) Value(values ...string) uint64 {
	if ch, _ := c.vec.lookup(values); ch != nil {
		return ch.metric.Value()
	}
	return 0
}

// GaugeVec is a gauge family partitioned by label values.
type GaugeVec struct {
	vec *vec[Gauge]
}

// With returns the child gauge for the given label values.
func (g *GaugeVec) With(values ...string) *Gauge { return g.vec.with(values...) }

// HistogramVec is a histogram family partitioned by label values; every
// child shares the family's bucket bounds.
type HistogramVec struct {
	vec    *vec[Histogram]
	bounds []float64
}

// With returns the child histogram for the given label values.
func (h *HistogramVec) With(values ...string) *Histogram { return h.vec.with(values...) }

// family is one named metric family registered in a Registry.
type family struct {
	name   string
	help   string
	typ    MetricType
	labels []string

	counter    *Counter
	gauge      *Gauge
	valueFn    func() float64 // a gauge or counter read at scrape time
	gaugeVecFn func() []LabeledValue
	histogram  *Histogram
	counterVec *CounterVec
	gaugeVec   *GaugeVec
	histVec    *HistogramVec
}

// Registry holds metric families and renders them in the Prometheus
// text exposition format. Family registration takes the registry lock;
// recording into an already-created metric touches only that metric's
// atomics (plus a sharded read-lock for labeled lookups), so the
// registry itself never serializes recorders.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		ok := r == '_' || r == ':' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(i > 0 && r >= '0' && r <= '9')
		if !ok {
			return false
		}
	}
	return true
}

func (r *Registry) register(f *family) {
	if !validName(f.name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", f.name))
	}
	for _, l := range f.labels {
		if !validName(l) {
			panic(fmt.Sprintf("obs: invalid label name %q on %q", l, f.name))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.families[f.name]; dup {
		panic(fmt.Sprintf("obs: metric %q registered twice", f.name))
	}
	r.families[f.name] = f
}

// Counter registers and returns an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	c := &Counter{}
	r.register(&family{name: name, help: help, typ: TypeCounter, counter: c})
	return c
}

// Gauge registers and returns an unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	g := &Gauge{}
	r.register(&family{name: name, help: help, typ: TypeGauge, gauge: g})
	return g
}

// GaugeFunc registers a gauge whose value is computed at scrape time —
// the natural fit for occupancy read from another structure (admission
// in-use, cache size) instead of double-booking it.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.register(&family{name: name, help: help, typ: TypeGauge, valueFn: fn})
}

// LabeledValue is one child of a GaugeVecFunc family.
type LabeledValue struct {
	Label string
	Value float64
}

// GaugeVecFunc registers a one-label gauge family whose children are
// computed at scrape time: GaugeFunc for a set that comes and goes
// (registered graphs), where stored children would outlive their
// subject.
func (r *Registry) GaugeVecFunc(name, help, label string, fn func() []LabeledValue) {
	r.register(&family{name: name, help: help, typ: TypeGauge, labels: []string{label}, gaugeVecFn: fn})
}

// Histogram registers and returns an unlabeled histogram; nil bounds use
// DefaultDurationBuckets.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	h := newHistogram(bounds)
	r.register(&family{name: name, help: help, typ: TypeHistogram, histogram: h})
	return h
}

// CounterVec registers a labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	cv := &CounterVec{vec: newVec(labels, func() *Counter { return &Counter{} })}
	r.register(&family{name: name, help: help, typ: TypeCounter, labels: labels, counterVec: cv})
	return cv
}

// GaugeVec registers a labeled gauge family.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	gv := &GaugeVec{vec: newVec(labels, func() *Gauge { return &Gauge{} })}
	r.register(&family{name: name, help: help, typ: TypeGauge, labels: labels, gaugeVec: gv})
	return gv
}

// HistogramVec registers a labeled histogram family; nil bounds use
// DefaultDurationBuckets.
func (r *Registry) HistogramVec(name, help string, bounds []float64, labels ...string) *HistogramVec {
	proto := newHistogram(bounds)
	hv := &HistogramVec{
		bounds: proto.bounds,
		vec: newVec(labels, func() *Histogram {
			return newHistogram(proto.bounds)
		}),
	}
	r.register(&family{name: name, help: help, typ: TypeHistogram, labels: labels, histVec: hv})
	return hv
}

// escapeLabel escapes a label value per the exposition format: backslash,
// double-quote and newline.
func escapeLabel(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	var b strings.Builder
	for _, r := range s {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// escapeHelp escapes a HELP text: backslash and newline.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func formatFloat(v float64) string {
	if v == math.Inf(1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// labelString renders {k="v",...} for the given names and values, with
// an optional extra pair appended (the histogram "le" bound).
func labelString(names, values []string, extraK, extraV string) string {
	if len(names) == 0 && extraK == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(n)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(values[i]))
		b.WriteByte('"')
	}
	if extraK != "" {
		if len(names) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(extraK)
		b.WriteString(`="`)
		b.WriteString(extraV)
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func writeHistogram(w io.Writer, name string, labels, values []string, h *Histogram) {
	counts, total, sum := h.snapshot()
	var cum uint64
	for i, b := range h.bounds {
		cum += counts[i]
		fmt.Fprintf(w, "%s_bucket%s %d\n", name, labelString(labels, values, "le", formatFloat(b)), cum)
	}
	fmt.Fprintf(w, "%s_bucket%s %d\n", name, labelString(labels, values, "le", "+Inf"), total)
	fmt.Fprintf(w, "%s_sum%s %s\n", name, labelString(labels, values, "", ""), formatFloat(sum))
	fmt.Fprintf(w, "%s_count%s %d\n", name, labelString(labels, values, "", ""), total)
}

// WritePrometheus renders every registered family in the text exposition
// format, families sorted by name and children by label values, so two
// scrapes of the same state are byte-identical.
func (r *Registry) WritePrometheus(w io.Writer) {
	r.mu.RLock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.RUnlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	for _, f := range fams {
		fmt.Fprintf(w, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.typ)
		switch {
		case f.counter != nil:
			fmt.Fprintf(w, "%s %d\n", f.name, f.counter.Value())
		case f.gauge != nil:
			fmt.Fprintf(w, "%s %d\n", f.name, f.gauge.Value())
		case f.valueFn != nil:
			fmt.Fprintf(w, "%s %s\n", f.name, formatFloat(f.valueFn()))
		case f.gaugeVecFn != nil:
			children := f.gaugeVecFn()
			sort.Slice(children, func(i, j int) bool { return children[i].Label < children[j].Label })
			for _, c := range children {
				fmt.Fprintf(w, "%s%s %s\n", f.name, labelString(f.labels, []string{c.Label}, "", ""), formatFloat(c.Value))
			}
		case f.histogram != nil:
			writeHistogram(w, f.name, nil, nil, f.histogram)
		case f.counterVec != nil:
			for _, c := range f.counterVec.vec.children() {
				fmt.Fprintf(w, "%s%s %d\n", f.name, labelString(f.labels, c.values, "", ""), c.metric.Value())
			}
		case f.gaugeVec != nil:
			for _, c := range f.gaugeVec.vec.children() {
				fmt.Fprintf(w, "%s%s %d\n", f.name, labelString(f.labels, c.values, "", ""), c.metric.Value())
			}
		case f.histVec != nil:
			for _, c := range f.histVec.vec.children() {
				writeHistogram(w, f.name, f.labels, c.values, c.metric)
			}
		}
	}
}
