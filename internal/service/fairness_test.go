package service

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"subgraphmatching/internal/graph"
	"subgraphmatching/internal/testutil"
)

// TestSemaphoreTenantShareClamp pins the fairness mechanism at the
// semaphore level: one tenant may hold at most maxShare of the queue,
// the overflow gets the typed ErrTenantSaturated, and other tenants
// still reach the remaining slots.
func TestSemaphoreTenantShareClamp(t *testing.T) {
	s := newSemaphore(1, 0.5)
	if err := s.acquire(context.Background(), "hot", 1, time.Second, 4); err != nil {
		t.Fatal(err)
	}
	// Queue cap 4, share 0.5 → tenant cap 2.
	grants := make(chan error, 8)
	for i := 0; i < 2; i++ {
		go func() { grants <- s.acquire(context.Background(), "hot", 1, time.Minute, 4) }()
	}
	waitForQueue(t, s, 2)
	if got := s.tenantQueued("hot"); got != 2 {
		t.Fatalf("hot occupies %d queue slots, want 2", got)
	}
	// The flooding tenant's third waiter bounces with the typed error...
	if err := s.acquire(context.Background(), "hot", 1, time.Minute, 4); !errors.Is(err, ErrTenantSaturated) {
		t.Fatalf("saturated tenant got %v, want ErrTenantSaturated", err)
	}
	if !errors.Is(ErrTenantSaturated, ErrOverloaded) {
		t.Fatal("ErrTenantSaturated must wrap ErrOverloaded (503 at the transport)")
	}
	// ...while a cold tenant still queues into the protected remainder.
	cold := make(chan error, 1)
	go func() { cold <- s.acquire(context.Background(), "cold", 1, time.Minute, 4) }()
	waitForQueue(t, s, 3)
	// Draining the holder admits the FIFO head; drain everything.
	s.release(1)
	for i := 0; i < 3; i++ {
		var err error
		select {
		case err = <-grants:
		case err = <-cold:
		case <-time.After(5 * time.Second):
			t.Fatal("queued waiter never granted")
		}
		if err != nil {
			t.Fatal(err)
		}
		s.release(1)
	}
	if got := s.tenantQueued("hot"); got != 0 {
		t.Fatalf("hot still accounts %d queue slots after drain", got)
	}
}

// TestSemaphoreShareDisabled: maxShare <= 0 or >= 1 must behave exactly
// like the unclamped queue (the pre-fairness semantics).
func TestSemaphoreShareDisabled(t *testing.T) {
	for _, share := range []float64{0, -1, 1, 2} {
		s := newSemaphore(1, share)
		if err := s.acquire(context.Background(), "hot", 1, time.Second, 2); err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 2)
		for i := 0; i < 2; i++ {
			go func() { done <- s.acquire(context.Background(), "hot", 1, time.Minute, 2) }()
		}
		waitForQueue(t, s, 2)
		// One tenant fills the whole queue; the overflow is ErrQueueFull,
		// never the tenant clamp.
		if err := s.acquire(context.Background(), "cold", 1, time.Minute, 2); !errors.Is(err, ErrQueueFull) {
			t.Fatalf("share=%v: got %v, want ErrQueueFull", share, err)
		}
		s.release(1)
		for i := 0; i < 2; i++ {
			if err := <-done; err != nil {
				t.Fatal(err)
			}
			s.release(1)
		}
	}
}

func waitForQueue(t *testing.T, s *semaphore, depth int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, _, queued := s.load(); queued >= depth {
			return
		}
		if time.Now().After(deadline) {
			_, _, queued := s.load()
			t.Fatalf("queue depth %d never reached (at %d)", depth, queued)
		}
		time.Sleep(time.Millisecond)
	}
}

// fairnessFixture builds a service with two registered graphs ("hot",
// "cold"), capacity 1, queue 4, and a blocking request occupying the
// only worker slot. It returns the query for each graph and a release
// function that unblocks the holder.
func fairnessFixture(t *testing.T, share float64) (s *Service, hotQ, coldQ *graph.Graph, release func()) {
	t.Helper()
	s = New(Config{MaxInFlight: 1, MaxQueue: 4, MaxQueueWait: time.Minute, MaxGraphShare: share})
	rng := rand.New(rand.NewSource(7))
	g := testutil.RandomGraph(rng, 200, 600, 3)
	for _, name := range []string{"hot", "cold"} {
		if _, err := s.RegisterGraph(name, g, false); err != nil {
			t.Fatal(err)
		}
	}
	hotQ = testutil.RandomConnectedQuery(rng, g, 4)
	coldQ = testutil.RandomConnectedQuery(rng, g, 4)

	// Occupy the single worker slot with a search blocked inside its
	// sink until release is called.
	gate := make(chan struct{})
	entered := make(chan struct{})
	var once sync.Once
	started := make(chan error, 1)
	go func() {
		_, err := s.Stream(context.Background(), Request{Graph: "hot", Query: hotQ}, func(_ []uint32, _ graph.Vertex, vs []uint32) int {
			once.Do(func() { close(entered) })
			<-gate
			return len(vs)
		})
		started <- err
	}()
	select {
	case <-entered:
	case err := <-started:
		t.Fatalf("holder finished before blocking: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("holder never started enumerating")
	}
	t.Cleanup(func() {
		release()
		if err := <-started; err != nil {
			t.Errorf("holder: %v", err)
		}
	})
	var relOnce sync.Once
	release = func() { relOnce.Do(func() { close(gate) }) }
	return s, hotQ, coldQ, release
}

// queueHot parks n hot-graph requests in the admission queue and
// returns their result channel.
func queueHot(s *Service, q *graph.Graph, n int) chan error {
	out := make(chan error, n)
	for i := 0; i < n; i++ {
		go func() {
			_, err := s.Submit(context.Background(), Request{Graph: "hot", Query: q})
			out <- err
		}()
	}
	return out
}

// TestFairnessStarvationWithoutClamp is the failing-first demonstration
// of the defect the clamp fixes: with MaxGraphShare disabled, a tenant
// flooding the bounded queue makes every cold-graph arrival bounce with
// ErrQueueFull — total starvation of the innocent tenant.
func TestFairnessStarvationWithoutClamp(t *testing.T) {
	s, hotQ, coldQ, release := fairnessFixture(t, -1) // clamp disabled
	defer release()
	hotDone := queueHot(s, hotQ, 4) // fills the whole queue
	waitForQueue(t, s.sem, 4)

	_, err := s.Submit(context.Background(), Request{Graph: "cold", Query: coldQ})
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("unclamped flood: cold graph got %v, want ErrQueueFull (starved)", err)
	}
	release()
	for i := 0; i < 4; i++ {
		if err := <-hotDone; err != nil {
			t.Fatal(err)
		}
	}
}

// TestFairnessColdGraphAdmittedUnderFlood is the regression pinning the
// fix: under the same flood with the default-style share clamp, the
// flooder saturates its share (typed, retryable), the cold graph's
// request still gets a queue slot, and its wait is bounded by the
// flooder's share draining ahead of it — not the whole queue.
func TestFairnessColdGraphAdmittedUnderFlood(t *testing.T) {
	s, hotQ, coldQ, release := fairnessFixture(t, 0.5) // tenant cap: 2 of 4 slots
	hotDone := queueHot(s, hotQ, 2)
	waitForQueue(t, s.sem, 2)

	// The flood beyond the share is rejected with the typed error, not
	// queued — the queue keeps room for other tenants.
	if _, err := s.Submit(context.Background(), Request{Graph: "hot", Query: hotQ}); !errors.Is(err, ErrTenantSaturated) {
		t.Fatalf("flooding tenant got %v, want ErrTenantSaturated", err)
	}
	if !errors.Is(ErrTenantSaturated, ErrOverloaded) {
		t.Fatal("ErrTenantSaturated must map to the retryable overload family")
	}

	coldStart := time.Now()
	coldDone := make(chan error, 1)
	go func() {
		_, err := s.Submit(context.Background(), Request{Graph: "cold", Query: coldQ})
		coldDone <- err
	}()
	waitForQueue(t, s.sem, 3)
	release()

	// The cold request completes behind at most the flooder's 2 queued
	// requests — bounded, not starved.
	select {
	case err := <-coldDone:
		if err != nil {
			t.Fatalf("cold graph under flood: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("cold graph starved for %v behind the flood", time.Since(coldStart))
	}
	for i := 0; i < 2; i++ {
		if err := <-hotDone; err != nil {
			t.Fatal(err)
		}
	}
	// The rejected counter picked up the saturation rejection.
	var rejected uint64
	for _, w := range s.Stats().Workloads {
		if w.Graph == "hot" {
			rejected += w.Rejected
		}
	}
	if rejected == 0 {
		t.Fatal("tenant-saturated rejection not recorded in metrics")
	}
}
