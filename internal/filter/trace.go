package filter

import "time"

// Stage records one internal stage of a filtering method: its name, how
// long it took, and the candidate count across query vertices once it
// finished — the per-stage attribution the paper's profiling
// methodology calls for (filtering wins are explained by *which* pruning
// stage removes the candidates, not by the method's total time). When
// the trace was collected with PerVertex set, Counts additionally holds
// |C(u)| per query vertex after the stage ran — the EXPLAIN view of
// where each vertex's candidates died.
type Stage struct {
	Name       string
	Duration   time.Duration
	Candidates uint64
	Counts     []uint32
}

// StageTrace collects the stages of one filtering run (Options.Trace).
// A nil trace disables collection; the run checks the pointer once per
// stage boundary, so the cost of an untraced run is a nil compare.
// PerVertex retains the per-query-vertex candidate counts at every stage
// boundary (O(stages x |V(q)|) extra space, negligible next to the
// candidate sets themselves).
type StageTrace struct {
	Stages    []Stage
	PerVertex bool
}

// add closes one stage: named, timed from start, with the candidate
// counts taken from the live candidate sets after it ran. Returns
// time.Now() so call sites chain stages without a second clock read.
func (t *StageTrace) add(name string, start time.Time, cand [][]uint32) time.Time {
	now := time.Now()
	if t != nil {
		st := Stage{Name: name, Duration: now.Sub(start), Candidates: TotalCandidates(cand)}
		if t.PerVertex {
			st.Counts = make([]uint32, len(cand))
			for u, c := range cand {
				st.Counts[u] = uint32(len(c))
			}
		}
		t.Stages = append(t.Stages, st)
	}
	return now
}

// TotalCandidates sums |C(u)| over the query vertices.
func TotalCandidates(cand [][]uint32) uint64 {
	var n uint64
	for _, c := range cand {
		n += uint64(len(c))
	}
	return n
}
