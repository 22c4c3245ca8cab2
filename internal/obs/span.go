package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"
)

// Span is one node of a request's phase breakdown: a named wall-time
// interval with typed attributes and child phases. The matching pipeline
// builds spans at phase boundaries (filter stages, candidate-space
// build, ordering, enumeration) — never per search node — so tracing
// costs a handful of allocations per request and leaves the zero-alloc
// enumeration hot path untouched.
//
// A span is mutable while its phase runs and must be treated as
// immutable once attached to a Result: cached plans share their
// preprocessing span across every request that hits them. The accessor
// methods additionally lock per span, so concurrent builders (parallel
// batch groups attaching children, the flight recorder reading a live
// span) stay race-free; the direct field reads tests and renderers of
// *finished* spans perform need no lock. Spans must not be copied by
// value.
type Span struct {
	mu       sync.Mutex
	Name     string
	Start    time.Time
	Duration time.Duration
	Attrs    []Attr
	Children []*Span
}

// Attr is one key/value annotation on a span. Values are kept typed so
// the slow-query log serializes counts as JSON numbers.
type Attr struct {
	Key   string
	Value any
}

// NewSpan builds a completed span from an already-measured interval —
// the common case in the pipeline, which times phases with time.Now
// pairs anyway.
func NewSpan(name string, start time.Time, d time.Duration) *Span {
	return &Span{Name: name, Start: start, Duration: d}
}

// Trace returns s: a finished span is its own span source, for a
// consumer that takes either a span or something that builds one on
// demand (flight.SpanSource).
func (s *Span) Trace() *Span { return s }

// StartSpan begins a span now; pair with End.
func StartSpan(name string) *Span {
	return &Span{Name: name, Start: time.Now()}
}

// End fixes the span's duration to the time elapsed since Start.
func (s *Span) End() {
	s.mu.Lock()
	s.Duration = time.Since(s.Start)
	s.mu.Unlock()
}

// SetAttr appends (or replaces) an attribute.
func (s *Span) SetAttr(key string, value any) *Span {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range s.Attrs {
		if s.Attrs[i].Key == key {
			s.Attrs[i].Value = value
			return s
		}
	}
	s.Attrs = append(s.Attrs, Attr{Key: key, Value: value})
	return s
}

// Attr returns the value of the named attribute, nil if absent.
func (s *Span) Attr(key string) any {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, a := range s.Attrs {
		if a.Key == key {
			return a.Value
		}
	}
	return nil
}

// AddChild appends a child span (nil children are ignored, which lets
// callers attach optional phases unconditionally).
func (s *Span) AddChild(c *Span) *Span {
	if c != nil {
		s.mu.Lock()
		s.Children = append(s.Children, c)
		s.mu.Unlock()
	}
	return s
}

// Child returns the first child with the given name, nil if absent.
func (s *Span) Child(name string) *Span {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, c := range s.Children {
		if c.Name == name {
			return c
		}
	}
	return nil
}

// snapshot copies the span's fields under its lock: the scalar fields by
// value and fresh slices for attrs/children, so the caller can walk them
// (and recurse into children, which lock themselves) without holding the
// lock.
func (s *Span) snapshot() (name string, start time.Time, d time.Duration, attrs []Attr, children []*Span) {
	s.mu.Lock()
	defer s.mu.Unlock()
	name, start, d = s.Name, s.Start, s.Duration
	attrs = append(attrs, s.Attrs...)
	children = append(children, s.Children...)
	return
}

// ChildrenDuration sums the direct children's durations — the quantity
// that must stay within the span's own duration for a well-nested trace.
func (s *Span) ChildrenDuration() time.Duration {
	_, _, _, _, children := s.snapshot()
	var d time.Duration
	for _, c := range children {
		c.mu.Lock()
		d += c.Duration
		c.mu.Unlock()
	}
	return d
}

// spanJSON is the wire shape of a span in the slow-query log and the
// HTTP trace response.
type spanJSON struct {
	Name       string         `json:"name"`
	DurationNS int64          `json:"duration_ns"`
	Attrs      map[string]any `json:"attrs,omitempty"`
	Children   []*Span        `json:"children,omitempty"`
}

// MarshalJSON renders {"name":..., "duration_ns":..., "attrs":{...},
// "children":[...]} with attrs as an object keyed by attribute name.
func (s *Span) MarshalJSON() ([]byte, error) {
	name, _, d, attrs, children := s.snapshot()
	j := spanJSON{Name: name, DurationNS: d.Nanoseconds(), Children: children}
	if len(attrs) > 0 {
		j.Attrs = make(map[string]any, len(attrs))
		for _, a := range attrs {
			j.Attrs[a.Key] = a.Value
		}
	}
	return json.Marshal(j)
}

// UnmarshalJSON restores a span tree written by MarshalJSON. Attribute
// map order is not preserved; attrs come back sorted by key.
func (s *Span) UnmarshalJSON(b []byte) error {
	var j spanJSON
	if err := json.Unmarshal(b, &j); err != nil {
		return err
	}
	keys := make([]string, 0, len(j.Attrs))
	for k := range j.Attrs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.Name = j.Name
	s.Duration = time.Duration(j.DurationNS)
	s.Children = j.Children
	s.Attrs = nil
	for _, k := range keys {
		s.Attrs = append(s.Attrs, Attr{Key: k, Value: j.Attrs[k]})
	}
	return nil
}

// Render writes the span tree as an indented table: name, duration, and
// the attributes on one line per span. Durations are rounded for
// readability; a zero duration (annotation-only spans, e.g. per-worker
// tallies) prints as "-".
func (s *Span) Render(w io.Writer) {
	s.render(w, 0)
}

func (s *Span) render(w io.Writer, depth int) {
	name, _, dur, attrs, children := s.snapshot()
	indent := strings.Repeat("  ", depth)
	d := "-"
	if dur > 0 {
		d = dur.Round(time.Microsecond).String()
	}
	fmt.Fprintf(w, "%-36s %12s", indent+name, d)
	for _, a := range attrs {
		fmt.Fprintf(w, "  %s=%v", a.Key, a.Value)
	}
	fmt.Fprintln(w)
	for _, c := range children {
		c.render(w, depth+1)
	}
}
