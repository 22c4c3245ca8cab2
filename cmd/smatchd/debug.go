package main

import (
	"fmt"
	"net/http"
	"strconv"
	"time"

	"subgraphmatching/internal/obs/flight"
)

// explain is EXPLAIN without ANALYZE: resolve the plan (cached or
// freshly preprocessed, same as a real query would) and return what the
// optimizer decided, without enumerating. Body and parameters match
// POST /match; ?format=text renders the profile as a table instead of
// JSON.
func (s *server) explain(w http.ResponseWriter, r *http.Request) {
	p := parseParams(r.URL.RawQuery)
	req, err := s.requestFromParams(w, r, p)
	if err != nil {
		httpError(w, err)
		return
	}
	resp, err := s.svc.Explain(r.Context(), req)
	if err != nil {
		httpError(w, err)
		return
	}
	if p.format == "text" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		resp.Profile.Render(w)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// tracezEntry is one retained request in the /debug/tracez listing —
// the identity row without the span tree (fetch ?id=N for the trace).
type tracezEntry struct {
	ID        uint64    `json:"id"`
	Graph     string    `json:"graph,omitempty"`
	Algo      string    `json:"algo,omitempty"`
	Start     time.Time `json:"start"`
	LatencyNS int64     `json:"latency_ns"`
	Error     string    `json:"error,omitempty"`
}

type tracezBucket struct {
	Label   string        `json:"label"`
	Count   uint64        `json:"count"`
	Records []tracezEntry `json:"records,omitempty"`
}

type tracezResponse struct {
	Buckets []tracezBucket `json:"buckets"`
	Errors  []tracezEntry  `json:"errors,omitempty"`
}

func tracezEntryOf(rec *flight.Record) tracezEntry {
	return tracezEntry{
		ID:        rec.ID,
		Graph:     rec.Graph,
		Algo:      rec.Algo,
		Start:     rec.Start,
		LatencyNS: rec.Latency.Nanoseconds(),
		Error:     rec.Err,
	}
}

// tracez serves the flight recorder's retention: without parameters the
// latency-bucketed listing (slowest retained requests per band plus the
// error ring), with ?id=N one retained record's full span tree — as
// JSON, as indented text (&format=text), or as a Chrome trace-event
// file loadable in chrome://tracing (&format=chrome).
func (s *server) tracez(w http.ResponseWriter, r *http.Request) {
	rec := s.svc.Flights()
	if v := r.URL.Query().Get("id"); v != "" {
		id, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			httpError(w, fmt.Errorf("bad id %q", v))
			return
		}
		record := rec.Lookup(id)
		if record == nil {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusNotFound)
			fmt.Fprintf(w, `{"error":"record %d not retained"}`+"\n", id)
			return
		}
		switch r.URL.Query().Get("format") {
		case "chrome":
			w.Header().Set("Content-Type", "application/json")
			w.Header().Set("Content-Disposition",
				fmt.Sprintf(`attachment; filename="trace-%d.json"`, id))
			flight.WriteChromeTrace(w, record.Span)
		case "text":
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			fmt.Fprintf(w, "request %d  graph=%s algo=%s latency=%s error=%q\n",
				record.ID, record.Graph, record.Algo, record.Latency, record.Err)
			if record.Span != nil {
				record.Span.Render(w)
			}
		default:
			writeJSON(w, http.StatusOK, record)
		}
		return
	}

	snap := rec.Snapshot()
	resp := tracezResponse{Buckets: make([]tracezBucket, len(snap))}
	for i, b := range snap {
		tb := tracezBucket{Label: b.Label, Count: b.Count}
		for _, r := range b.Records {
			tb.Records = append(tb.Records, tracezEntryOf(r))
		}
		resp.Buckets[i] = tb
	}
	for _, r := range rec.Errors() {
		resp.Errors = append(resp.Errors, tracezEntryOf(r))
	}
	if r.URL.Query().Get("format") == "text" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		for _, b := range resp.Buckets {
			fmt.Fprintf(w, "%-8s %8d completed\n", b.Label, b.Count)
			for _, e := range b.Records {
				fmt.Fprintf(w, "  id=%-6d %-12s %-10s %12s  %s\n",
					e.ID, e.Graph, e.Algo, time.Duration(e.LatencyNS), e.Error)
			}
		}
		if len(resp.Errors) > 0 {
			fmt.Fprintf(w, "errors (newest first):\n")
			for _, e := range resp.Errors {
				fmt.Fprintf(w, "  id=%-6d %-12s %-10s %12s  %s\n",
					e.ID, e.Graph, e.Algo, time.Duration(e.LatencyNS), e.Error)
			}
		}
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// debugRequests serves the live in-flight registry: every request the
// service is running right now, its phase and how long it has been in
// flight, oldest first. ?format=text renders a table.
func (s *server) debugRequests(w http.ResponseWriter, r *http.Request) {
	infos := s.svc.Flights().Inflight()
	if r.URL.Query().Get("format") == "text" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintf(w, "%d in flight\n", len(infos))
		for _, in := range infos {
			fmt.Fprintf(w, "  id=%-6d %-12s %-10s phase=%-10s elapsed=%s\n",
				in.ID, in.Graph, in.Algo, in.Phase, in.Elapsed.Round(time.Microsecond))
		}
		return
	}
	writeJSON(w, http.StatusOK, struct {
		Inflight []flight.InflightInfo `json:"inflight"`
	}{infos})
}
