package enumerate

import (
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"subgraphmatching/internal/candspace"
	"subgraphmatching/internal/filter"
	"subgraphmatching/internal/graph"
	"subgraphmatching/internal/testutil"
)

// TestCancelStopsSearch arms the cooperative cancel flag mid-search and
// verifies the engine stops without reporting a timeout.
func TestCancelStopsSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := testutil.RandomGraph(rng, 400, 8000, 1)
	q := graph.MustFromEdges(make([]graph.Label, 6),
		[][2]graph.Vertex{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0}})
	cand := filter.RunLDF(q, g)
	space := candspace.BuildFull(q, g, cand)
	phi := graph.NewBFSTree(q, 0).Order

	var cancel atomic.Bool
	done := make(chan *Stats, 1)
	go func() {
		st, err := runFresh(q, g, cand, space, phi, Options{Local: Intersect, Cancel: &cancel})
		if err != nil {
			t.Error(err)
		}
		done <- st
	}()
	time.Sleep(20 * time.Millisecond)
	cancel.Store(true)
	select {
	case st := <-done:
		if st.TimedOut {
			t.Error("cancel must not be reported as a timeout")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("engine did not honor the cancel flag")
	}
}

// TestCancelPreArmed verifies a search aborts promptly when the flag is
// already set.
func TestCancelPreArmed(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	g := testutil.RandomGraph(rng, 300, 6000, 1)
	q := graph.MustFromEdges(make([]graph.Label, 5),
		[][2]graph.Vertex{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}})
	cand := filter.RunLDF(q, g)
	space := candspace.BuildFull(q, g, cand)
	phi := graph.NewBFSTree(q, 0).Order
	var cancel atomic.Bool
	cancel.Store(true)
	start := time.Now()
	st, err := runFresh(q, g, cand, space, phi, Options{Local: Intersect, Cancel: &cancel})
	if err != nil {
		t.Fatal(err)
	}
	// The flag is polled every timeCheckInterval nodes; the search must
	// stop after at most a few polls, far faster than exhausting the
	// space.
	if time.Since(start) > 2*time.Second {
		t.Errorf("pre-armed cancel took %v", time.Since(start))
	}
	_ = st
}
