package filter

import (
	"math/rand"
	"testing"

	"subgraphmatching/internal/testutil"
)

// TestRunTracedStages checks that every method records its expected
// stages, that the traced run produces byte-identical candidate sets to
// the untraced run, and that the final stage's candidate total matches
// the returned sets.
func TestRunTracedStages(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := testutil.RandomGraph(rng, 120, 480, 3)
	q := testutil.RandomConnectedQuery(rng, g, 6)

	wantStages := map[Method][]string{
		LDF:    {"ldf"},
		NLF:    {"nlf"},
		GQL:    {"local", "refine-1"}, // refine-2 only if round 1 changed something
		CFL:    {"generate", "refine"},
		CECI:   {"construct", "refine"},
		DPIso:  {"init", "pass-1", "pass-2", "pass-3"},
		Steady: {"fixpoint"},
	}
	for _, m := range Methods() {
		var tr StageTrace
		got := mustRun(t, m, q, g, Options{Trace: &tr})
		plain, err := Run(m, q, g)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if len(got) != len(plain) {
			t.Fatalf("%v: traced %d sets, plain %d", m, len(got), len(plain))
		}
		for u := range got {
			if len(got[u]) != len(plain[u]) {
				t.Fatalf("%v: C(%d) differs traced vs plain", m, u)
			}
			for i := range got[u] {
				if got[u][i] != plain[u][i] {
					t.Fatalf("%v: C(%d)[%d] differs traced vs plain", m, u, i)
				}
			}
		}
		want := wantStages[m]
		if len(tr.Stages) < len(want) {
			t.Fatalf("%v: got %d stages %v, want at least %v", m, len(tr.Stages), tr.Stages, want)
		}
		for i, name := range want {
			if tr.Stages[i].Name != name {
				t.Errorf("%v: stage %d = %q, want %q", m, i, tr.Stages[i].Name, name)
			}
		}
		last := tr.Stages[len(tr.Stages)-1]
		if last.Candidates != TotalCandidates(got) {
			t.Errorf("%v: final stage candidates %d != returned total %d", m, last.Candidates, TotalCandidates(got))
		}
		// Pruning stages never grow the candidate total.
		for i := 1; i < len(tr.Stages); i++ {
			if tr.Stages[i].Candidates > tr.Stages[i-1].Candidates {
				t.Errorf("%v: stage %q grew candidates %d -> %d", m,
					tr.Stages[i].Name, tr.Stages[i-1].Candidates, tr.Stages[i].Candidates)
			}
		}
	}
}

// TestRunParallelTracedStages pins stage-trace parity across worker
// counts: every filter method reports its stages and a per-worker tally
// under Workers > 1, and the stages match the one-worker trace name for
// name and count for count (stage boundaries are the run's barriers).
func TestRunParallelTracedStages(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := testutil.RandomGraph(rng, 120, 480, 3)
	q := testutil.RandomConnectedQuery(rng, g, 6)

	wantStages := map[Method][]string{
		LDF:    {"ldf"},
		NLF:    {"nlf"},
		GQL:    {"local", "refine-1"}, // later rounds only if round 1 changed something
		CFL:    {"generate", "refine"},
		CECI:   {"construct", "refine"},
		DPIso:  {"init", "pass-1", "pass-2", "pass-3"},
		Steady: {"fixpoint"},
	}
	for _, m := range Methods() {
		var tr StageTrace
		got, work, err := RunOpts(m, q, g, Options{Workers: 4, Trace: &tr})
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if len(work) != 4 {
			t.Fatalf("%v: tally %v, want one entry per worker", m, work)
		}
		want := wantStages[m]
		if len(tr.Stages) < len(want) {
			t.Fatalf("%v: got %d stages %v, want at least %v", m, len(tr.Stages), tr.Stages, want)
		}
		for i, name := range want {
			if tr.Stages[i].Name != name {
				t.Errorf("%v: stage %d = %q, want %q", m, i, tr.Stages[i].Name, name)
			}
		}
		last := tr.Stages[len(tr.Stages)-1]
		if last.Candidates != TotalCandidates(got) {
			t.Errorf("%v: final stage candidates %d != returned total %d", m, last.Candidates, TotalCandidates(got))
		}
		// Every method matches the one-worker trace stage for stage —
		// same names, same candidate counts after each.
		var seq StageTrace
		mustRun(t, m, q, g, Options{Trace: &seq})
		if len(tr.Stages) != len(seq.Stages) {
			t.Fatalf("%v: 4 workers %d stages, one worker %d", m, len(tr.Stages), len(seq.Stages))
		}
		for i := range tr.Stages {
			if tr.Stages[i].Name != seq.Stages[i].Name ||
				tr.Stages[i].Candidates != seq.Stages[i].Candidates {
				t.Errorf("%v: stage %d at 4 workers (%s, %d) != at one worker (%s, %d)", m, i,
					tr.Stages[i].Name, tr.Stages[i].Candidates,
					seq.Stages[i].Name, seq.Stages[i].Candidates)
			}
		}
	}
}

// TestRunTracedNil confirms the nil-trace path is exactly Run.
func TestRunTracedNil(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := testutil.RandomGraph(rng, 60, 200, 2)
	q := testutil.RandomConnectedQuery(rng, g, 5)
	for _, m := range Methods() {
		a := mustRun(t, m, q, g, Options{Trace: nil})
		b, _ := Run(m, q, g)
		if len(a) != len(b) {
			t.Fatalf("%v: mismatch", m)
		}
	}
}
