package enumerate

import (
	"bytes"
	"strings"
	"testing"

	"subgraphmatching/internal/candspace"
	"subgraphmatching/internal/filter"
	"subgraphmatching/internal/graph"
	"subgraphmatching/internal/testutil"
)

func profiledRun(t *testing.T, opts Options) *Stats {
	t.Helper()
	q, g := testutil.PaperQuery(), testutil.PaperData()
	cand := filter.RunLDF(q, g)
	space := candspace.BuildFull(q, g, cand)
	phi := graph.NewBFSTree(q, 0).Order
	opts.Profile = true
	st, err := runFresh(q, g, cand, space, phi, opts)
	if err != nil {
		t.Fatal(err)
	}
	if st.Profile == nil {
		t.Fatal("Profile not collected")
	}
	return st
}

func TestProfileCountsConsistent(t *testing.T) {
	for _, opts := range []Options{
		{Local: Intersect},
		{Local: Intersect, FailingSets: true},
		{Local: Intersect, Adaptive: true},
		{Local: Direct},
	} {
		st := profiledRun(t, opts)
		p := st.Profile
		// Root nodes: exactly one search node at depth 0.
		if p.Nodes[0] != 1 {
			t.Errorf("%+v: Nodes[0] = %d, want 1", opts, p.Nodes[0])
		}
		// Nodes at depth d+1 equal extensions at depth d.
		for d := 0; d < p.MaxDepth()-1; d++ {
			if p.Nodes[d+1] != p.Extended[d] {
				t.Errorf("%+v: Nodes[%d]=%d != Extended[%d]=%d",
					opts, d+1, p.Nodes[d+1], d, p.Extended[d])
			}
		}
		// Extensions never exceed candidates.
		for d := range p.Candidates {
			if p.Extended[d] > p.Candidates[d] {
				t.Errorf("Extended[%d] > Candidates[%d]", d, d)
			}
		}
		// TotalNodes covers the profiled interior nodes (leaves are
		// counted by Stats.Nodes but carry no LC).
		if p.TotalNodes() == 0 || p.TotalNodes() > st.Nodes {
			t.Errorf("TotalNodes = %d vs Stats.Nodes = %d", p.TotalNodes(), st.Nodes)
		}
	}
}

func TestProfileConflictsRecorded(t *testing.T) {
	// Unlabeled path query in K4: when extending u2, the vertex mapped
	// to u0 is a neighbor of M[u1] and hence a local candidate — an
	// injectivity conflict. (A triangle query would not conflict: every
	// mapped vertex is adjacent to all candidates and graphs have no
	// self-loops.)
	var edges [][2]graph.Vertex
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			edges = append(edges, [2]graph.Vertex{graph.Vertex(i), graph.Vertex(j)})
		}
	}
	g := graph.MustFromEdges(make([]graph.Label, 4), edges)
	q := graph.MustFromEdges(make([]graph.Label, 3), [][2]graph.Vertex{{0, 1}, {1, 2}})
	cand := filter.RunLDF(q, g)
	space := candspace.BuildFull(q, g, cand)
	phi := graph.NewBFSTree(q, 0).Order
	st, err := runFresh(q, g, cand, space, phi, Options{Local: Intersect, Profile: true})
	if err != nil {
		t.Fatal(err)
	}
	total := uint64(0)
	for _, c := range st.Profile.Conflicts {
		total += c
	}
	if total == 0 {
		t.Error("expected injectivity conflicts in K4 triangle search")
	}
}

func TestProfileRender(t *testing.T) {
	st := profiledRun(t, Options{Local: Intersect})
	var buf bytes.Buffer
	st.Profile.Render(&buf)
	out := buf.String()
	if !strings.Contains(out, "depth") || !strings.Contains(out, "candidates") {
		t.Errorf("render output:\n%s", out)
	}
	summary := st.Profile.BranchingSummary()
	if !strings.Contains(summary, "fanout") {
		t.Errorf("summary = %q", summary)
	}
}

func TestProfileDisabledByDefault(t *testing.T) {
	q, g := testutil.PaperQuery(), testutil.PaperData()
	cand := filter.RunLDF(q, g)
	space := candspace.BuildFull(q, g, cand)
	phi := graph.NewBFSTree(q, 0).Order
	st, err := runFresh(q, g, cand, space, phi, Options{Local: Intersect})
	if err != nil {
		t.Fatal(err)
	}
	if st.Profile != nil {
		t.Error("Profile should be nil when not requested")
	}
}
