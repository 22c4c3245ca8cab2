package filter

import (
	"reflect"
	"testing"

	"subgraphmatching/internal/querygen"
	"subgraphmatching/internal/rmat"
)

// TestParallelFilterStress is the race-detector gate for the filter
// executor (`make race-stress` / `make ci`): many short runs at 8
// workers on a small skewed graph, so that any shared-state bug — a
// scratch matcher or profiler leaking across workers, a membership
// bitmap mutated inside a wave — trips `go test -race` with high
// probability, and any scheduling-dependent output diverges from the
// one-worker run.
func TestParallelFilterStress(t *testing.T) {
	g, err := rmat.Generate(rmat.Config{NumVertices: 300, NumEdges: 1500, NumLabels: 3, Seed: 13, LabelSkew: 0.7})
	if err != nil {
		t.Fatal(err)
	}
	qs, err := querygen.Generate(g, querygen.Config{NumVertices: 5, Count: 2, Density: querygen.Any, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	methods := []Method{NLF, GQL, CFL, CECI, DPIso, Steady}
	refs := make(map[Method][][][]uint32)
	for _, m := range methods {
		for _, q := range qs {
			refs[m] = append(refs[m], mustRun(t, m, q, g, Options{Workers: 1}))
		}
	}
	const iterations = 100
	for i := 0; i < iterations; i++ {
		for _, m := range methods {
			for qi, q := range qs {
				got := mustRun(t, m, q, g, Options{Workers: 8})
				if !reflect.DeepEqual(got, refs[m][qi]) {
					t.Fatalf("iteration %d: %v on q%d diverged from reference", i, m, qi)
				}
			}
		}
	}
}
