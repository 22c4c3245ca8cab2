package filter

import (
	"reflect"
	"testing"

	"subgraphmatching/internal/querygen"
	"subgraphmatching/internal/rmat"
)

// TestParallelFilterStress is the race-detector gate for the parallel
// filtering paths (`make race-stress` / `make ci`): many short runs at
// 8 workers on a small skewed graph, so that any shared-state bug — a
// scratch matcher or profiler leaking across workers, a membership
// bitmap mutated inside a Jacobi round — trips `go test -race` with
// high probability, and any scheduling-dependent output diverges from
// the reference run.
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
			ref, err := RunParallel(m, q, g, 1)
			if err != nil {
				t.Fatal(err)
			}
			refs[m] = append(refs[m], ref)
		}
	}
	const iterations = 100
	for i := 0; i < iterations; i++ {
		for _, m := range methods {
			for qi, q := range qs {
				got, err := RunParallel(m, q, g, 8)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, refs[m][qi]) {
					t.Fatalf("iteration %d: %v on q%d diverged from reference", i, m, qi)
				}
			}
		}
	}
}
