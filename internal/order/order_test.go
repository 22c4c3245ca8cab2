package order

import (
	"math/rand"
	"testing"
	"testing/quick"

	"subgraphmatching/internal/filter"
	"subgraphmatching/internal/graph"
	"subgraphmatching/internal/testutil"
)

func TestAllMethodsProduceValidOrders(t *testing.T) {
	q, g := testutil.PaperQuery(), testutil.PaperData()
	cand, _ := filter.Run(filter.NLF, q, g)
	for _, m := range Methods() {
		phi, err := Compute(m, q, g, cand)
		if err != nil {
			t.Fatalf("Compute(%v): %v", m, err)
		}
		if err := Validate(q, phi); err != nil {
			t.Errorf("Compute(%v) = %v: %v", m, phi, err)
		}
	}
}

func TestOrdersValidOnRandomQueries(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := testutil.RandomGraph(rng, 20+rng.Intn(20), 50+rng.Intn(30), 3)
		q := testutil.RandomConnectedQuery(rng, g, 3+rng.Intn(6))
		if q == nil {
			return true
		}
		cand, _ := filter.Run(filter.NLF, q, g)
		for _, m := range Methods() {
			phi, err := Compute(m, q, g, cand)
			if err != nil {
				t.Logf("Compute(%v): %v", m, err)
				return false
			}
			if err := Validate(q, phi); err != nil {
				t.Logf("Compute(%v) = %v: %v", m, phi, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestGQLStartsWithSmallestCandidateSet(t *testing.T) {
	q, g := testutil.PaperQuery(), testutil.PaperData()
	cand, _ := filter.Run(filter.NLF, q, g) // |C| = 1, 3, 3, 2
	phi := ComputeGQL(q, cand)
	if phi[0] != 0 {
		t.Errorf("GQL order starts at u%d, want u0 (smallest candidate set)", phi[0])
	}
	// Next frontier choice: neighbors of u0 are u1 (3) and u2 (3); after
	// that u3 (2 candidates) becomes reachable and must win over the
	// remaining 3-candidate vertex.
	if phi[2] != 3 {
		t.Errorf("GQL order = %v, expected u3 at position 2", phi)
	}
}

func TestRIStartsWithMaxDegree(t *testing.T) {
	// Star with center 0 (degree 3).
	q := graph.MustFromEdges([]graph.Label{0, 1, 1, 1}, [][2]graph.Vertex{{0, 1}, {0, 2}, {0, 3}})
	phi := ComputeRI(q)
	if phi[0] != 0 {
		t.Errorf("RI order starts at u%d, want u0", phi[0])
	}
	if err := Validate(q, phi); err != nil {
		t.Error(err)
	}
}

func TestRIPrefersMoreBackwardNeighbors(t *testing.T) {
	q, g := testutil.PaperQuery(), testutil.PaperData()
	_ = g
	phi := ComputeRI(q)
	// Degrees: u0=2 u1=3 u2=3 u3=2; RI starts at u1 (max degree, lowest
	// id among ties). Then u2 has 1 backward neighbor (u1) as do u0, u3;
	// tie-breaking decides, but the third vertex must close a triangle
	// (2 backward neighbors beat 1).
	if phi[0] != 1 {
		t.Errorf("RI starts at u%d, want u1", phi[0])
	}
	back := 0
	for _, un := range q.Neighbors(phi[2]) {
		if un == phi[0] || un == phi[1] {
			back++
		}
	}
	if back != 2 {
		t.Errorf("RI third vertex %d has %d backward neighbors, want 2 (order %v)", phi[2], back, phi)
	}
}

func TestVF2PPRootHasRarestLabel(t *testing.T) {
	q, g := testutil.PaperQuery(), testutil.PaperData()
	phi := ComputeVF2PP(q, g)
	// Label frequencies in G: A=1, B=3, C=4, D=3. u0 has label A.
	if phi[0] != 0 {
		t.Errorf("VF2PP root = u%d, want u0 (rarest label)", phi[0])
	}
}

func TestQSIPicksInfrequentEdgeFirst(t *testing.T) {
	q, g := testutil.PaperQuery(), testutil.PaperData()
	phi := ComputeQSI(q, g)
	// Label-pair edge counts in G: (A,B)=3 (A,C)=3 (B,C)=4 (B,D)=5
	// (C,D)=3... the seed edge is one of the lightest; u0 participates
	// in (A,B) and (A,C), and label A is rarest, so u0 must come first.
	if phi[0] != 0 {
		t.Errorf("QSI order = %v, expected u0 first", phi)
	}
	if err := Validate(q, phi); err != nil {
		t.Error(err)
	}
}

func TestCECIAndDPIsoAreBFSOrders(t *testing.T) {
	q, g := testutil.PaperQuery(), testutil.PaperData()
	for name, phi := range map[string][]graph.Vertex{
		"CECI":  ComputeCECI(q, g),
		"DPiso": ComputeDPIso(q, g),
	} {
		// Example 3.3/3.4: delta = (u0, u1, u2, u3).
		want := []graph.Vertex{0, 1, 2, 3}
		for i := range want {
			if phi[i] != want[i] {
				t.Errorf("%s order = %v, want %v", name, phi, want)
				break
			}
		}
	}
}

func TestCFLOrderStartsWithCoreRoot(t *testing.T) {
	q, g := testutil.PaperQuery(), testutil.PaperData()
	cand, _ := filter.Run(filter.CFL, q, g)
	phi := ComputeCFL(q, g, cand)
	if phi[0] != 0 {
		t.Errorf("CFL order = %v, expected root u0 first", phi)
	}
	if err := Validate(q, phi); err != nil {
		t.Error(err)
	}
}

func TestCFLOrderSingleVertex(t *testing.T) {
	q := graph.MustFromEdges([]graph.Label{0}, nil)
	g := testutil.PaperData()
	phi := ComputeCFL(q, g, [][]uint32{{0}})
	if len(phi) != 1 || phi[0] != 0 {
		t.Errorf("CFL single-vertex order = %v", phi)
	}
}

func TestRandomOrdersAreValid(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	q, _ := testutil.PaperQuery(), testutil.PaperData()
	for i := 0; i < 100; i++ {
		phi := Random(rng, q)
		if err := Validate(q, phi); err != nil {
			t.Fatalf("Random order %v invalid: %v", phi, err)
		}
	}
}

func TestValidateRejectsBadOrders(t *testing.T) {
	q := testutil.PaperQuery()
	cases := [][]graph.Vertex{
		{0, 1},       // wrong length
		{0, 0, 1, 2}, // duplicate
		{0, 1, 2, 9}, // out of range
		{0, 3, 1, 2}, // u3 not adjacent to u0: disconnected prefix
	}
	for _, phi := range cases {
		if err := Validate(q, phi); err == nil {
			t.Errorf("Validate(%v) should fail", phi)
		}
	}
	if err := Validate(q, []graph.Vertex{0, 1, 2, 3}); err != nil {
		t.Errorf("Validate(valid order): %v", err)
	}
}

func TestParseAndString(t *testing.T) {
	for _, m := range Methods() {
		got, err := ParseMethod(m.String())
		if err != nil || got != m {
			t.Errorf("ParseMethod(%q) = %v, %v", m.String(), got, err)
		}
	}
	if _, err := ParseMethod("bogus"); err == nil {
		t.Error("ParseMethod should reject unknown names")
	}
}

func TestComputeErrors(t *testing.T) {
	g := testutil.PaperData()
	empty := graph.MustFromEdges(nil, nil)
	if _, err := Compute(RI, empty, g, nil); err == nil {
		t.Error("expected error for empty query")
	}
	q := testutil.PaperQuery()
	if _, err := Compute(GQL, q, g, nil); err == nil {
		t.Error("expected error for missing candidates")
	}
}
