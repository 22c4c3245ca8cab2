package core

import (
	"errors"
	"reflect"
	"testing"

	"subgraphmatching/internal/enumerate"
	"subgraphmatching/internal/filter"
	"subgraphmatching/internal/graph"
	"subgraphmatching/internal/order"
	"subgraphmatching/internal/testutil"
)

func TestNECTriangle(t *testing.T) {
	// Unlabeled triangle: all three vertices are closed twins.
	q := graph.MustFromEdges(make([]graph.Label, 3), [][2]graph.Vertex{{0, 1}, {1, 2}, {0, 2}})
	classes := NeighborhoodEquivalenceClasses(q)
	if len(classes) != 1 || len(classes[0]) != 3 {
		t.Fatalf("classes = %v", classes)
	}
	if OrbitMultiplier(classes) != 6 {
		t.Errorf("multiplier = %d, want 6", OrbitMultiplier(classes))
	}
}

func TestNECPathAndStar(t *testing.T) {
	// Path 0-1-2: endpoints are open twins.
	path := graph.MustFromEdges(make([]graph.Label, 3), [][2]graph.Vertex{{0, 1}, {1, 2}})
	classes := NeighborhoodEquivalenceClasses(path)
	if len(classes) != 1 || !reflect.DeepEqual(classes[0], []graph.Vertex{0, 2}) {
		t.Fatalf("path classes = %v", classes)
	}
	// Star with 4 leaves: the leaves form one open class of 4.
	star := graph.MustFromEdges(make([]graph.Label, 5),
		[][2]graph.Vertex{{0, 1}, {0, 2}, {0, 3}, {0, 4}})
	classes = NeighborhoodEquivalenceClasses(star)
	if len(classes) != 1 || len(classes[0]) != 4 {
		t.Fatalf("star classes = %v", classes)
	}
	if OrbitMultiplier(classes) != 24 {
		t.Errorf("star multiplier = %d, want 24", OrbitMultiplier(classes))
	}
}

func TestNECRespectsLabels(t *testing.T) {
	// Path with differently-labeled endpoints: no classes.
	q := graph.MustFromEdges([]graph.Label{0, 1, 2}, [][2]graph.Vertex{{0, 1}, {1, 2}})
	if classes := NeighborhoodEquivalenceClasses(q); len(classes) != 0 {
		t.Fatalf("classes = %v, want none", classes)
	}
}

func TestSymmetryBreakingTriangleInClique(t *testing.T) {
	var edges [][2]graph.Vertex
	for i := 0; i < 7; i++ {
		for j := i + 1; j < 7; j++ {
			edges = append(edges, [2]graph.Vertex{graph.Vertex(i), graph.Vertex(j)})
		}
	}
	g := graph.MustFromEdges(make([]graph.Label, 7), edges)
	q := graph.MustFromEdges(make([]graph.Label, 3), [][2]graph.Vertex{{0, 1}, {1, 2}, {0, 2}})
	cfg := Config{Filter: filter.LDF, Order: order.GQL, Local: enumerate.Intersect, SymmetryBreaking: true}
	res, err := Match(q, g, cfg, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	// 7*6*5 = 210 embeddings from 35 canonical triangles x 6.
	if res.Embeddings != 210 {
		t.Errorf("Embeddings = %d, want 210", res.Embeddings)
	}
}

func TestHomomorphismSupersetOfIsomorphism(t *testing.T) {
	q, g := testutil.PaperQuery(), testutil.PaperData()
	iso, err := Match(q, g, PresetConfig(Optimized, q, g), Limits{})
	if err != nil {
		t.Fatal(err)
	}
	hom, err := Match(q, g, Config{Local: enumerate.Intersect, Order: order.GQL, Homomorphism: true}, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if hom.Embeddings < iso.Embeddings {
		t.Errorf("homomorphisms (%d) < isomorphisms (%d)", hom.Embeddings, iso.Embeddings)
	}
}

func TestHomomorphismIncompatibilities(t *testing.T) {
	q, g := testutil.PaperQuery(), testutil.PaperData()
	for _, engine := range []Config{{UseGlasgow: true}, {UseVF2: true}, {UseUllmann: true}} {
		engine.Homomorphism = true
		if _, err := Match(q, g, engine, Limits{}); !errors.Is(err, enumerate.ErrUnsupported) {
			t.Errorf("%s engine with homomorphism: err = %v, want enumerate.ErrUnsupported", engine.engine(), err)
		}
	}
	cfg := Config{Local: enumerate.Intersect, Order: order.GQL, Homomorphism: true, SymmetryBreaking: true}
	if _, err := Match(q, g, cfg, Limits{}); err == nil {
		t.Error("expected error for symmetry breaking + homomorphism")
	}
	cfg = Config{Local: enumerate.Intersect, Order: order.GQL, Homomorphism: true}
	seq, err := Match(q, g, cfg, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Match(q, g, cfg, Limits{Parallel: 4})
	if err != nil {
		t.Fatal(err)
	}
	if par.Embeddings != seq.Embeddings {
		t.Errorf("parallel homomorphisms = %d, sequential %d", par.Embeddings, seq.Embeddings)
	}
}
