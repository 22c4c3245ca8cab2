package order

import (
	"math/rand"
	"reflect"
	"testing"

	"subgraphmatching/internal/filter"
	"subgraphmatching/internal/testutil"
)

// TestOrdersDeterministic: every ordering method must be a pure function
// of its inputs — the experiments' reproducibility depends on it.
func TestOrdersDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 10; trial++ {
		g := testutil.RandomGraph(rng, 30, 90, 3)
		q := testutil.RandomConnectedQuery(rng, g, 6)
		if q == nil {
			continue
		}
		cand, _ := filter.Run(filter.NLF, q, g)
		for _, m := range Methods() {
			a, err1 := Compute(m, q, g, cand)
			b, err2 := Compute(m, q, g, cand)
			if err1 != nil || err2 != nil {
				t.Fatalf("%v: %v %v", m, err1, err2)
			}
			if !reflect.DeepEqual(a, b) {
				t.Errorf("%v is nondeterministic: %v vs %v", m, a, b)
			}
		}
	}
}

// TestDPIsoPostponesDegreeOneVertices checks the paper's degree-one
// decomposition: leaves appear after all core vertices.
func TestDPIsoPostponesDegreeOneVertices(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 20; trial++ {
		g := testutil.RandomGraph(rng, 30, 60, 2)
		q := testutil.RandomConnectedQuery(rng, g, 6)
		if q == nil {
			continue
		}
		phi := ComputeDPIso(q, g)
		if err := Validate(q, phi); err != nil {
			t.Fatalf("invalid DPiso order: %v", err)
		}
		// After the first degree-one non-root vertex, only degree-one
		// vertices may follow.
		seenLeaf := false
		for i, u := range phi {
			isLeaf := q.Degree(u) == 1 && i > 0
			if seenLeaf && !isLeaf {
				t.Fatalf("order %v interleaves core vertices after leaves (degrees %v)",
					phi, degreesOf(q, phi))
			}
			if isLeaf {
				seenLeaf = true
			}
		}
	}
}

func degreesOf(q interface{ Degree(uint32) int }, phi []uint32) []int {
	out := make([]int, len(phi))
	for i, u := range phi {
		out[i] = q.Degree(u)
	}
	return out
}
