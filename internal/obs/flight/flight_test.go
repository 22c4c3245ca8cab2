package flight

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"subgraphmatching/internal/obs"
)

// finishAt completes a flight with a synthetic latency — retention
// tests need deterministic bucket placement.
func finishAt(f *Flight, lat time.Duration, err error) *Record {
	return f.finish(lat, obs.NewSpan("match", time.Now(), lat), err, nil)
}

func TestBucketRetentionKeepsSlowest(t *testing.T) {
	r := NewRecorder(4, 0)
	// 20 records in the <10ms band: latencies 1ms+1ns .. 1ms+20ns.
	for i := 1; i <= 20; i++ {
		finishAt(r.Start("g", "a"), time.Millisecond+time.Duration(i), nil)
	}
	snap := r.Snapshot()
	b := snap[1] // <10ms band
	if b.Count != 20 {
		t.Fatalf("band count = %d, want 20", b.Count)
	}
	if len(b.Records) != 4 {
		t.Fatalf("retained %d, want 4", len(b.Records))
	}
	for i, rec := range b.Records {
		want := time.Millisecond + time.Duration(20-i)
		if rec.Latency != want {
			t.Errorf("slot %d latency %v, want %v", i, rec.Latency, want)
		}
	}
	// Other bands untouched.
	if snap[0].Count != 0 || len(snap[0].Records) != 0 {
		t.Errorf("fast band polluted: %+v", snap[0])
	}
}

func TestBucketIndexAndLabels(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want int
	}{
		{0, 0}, {999 * time.Microsecond, 0},
		{time.Millisecond, 1}, {9 * time.Millisecond, 1},
		{50 * time.Millisecond, 2}, {500 * time.Millisecond, 3},
		{5 * time.Second, 4}, {time.Minute, 5},
	}
	for _, c := range cases {
		if got := bucketIndex(c.d); got != c.want {
			t.Errorf("bucketIndex(%v) = %d, want %d", c.d, got, c.want)
		}
	}
	if BucketLabel(0) != "<1ms" || BucketLabel(5) != ">=10s" {
		t.Errorf("labels: %q %q", BucketLabel(0), BucketLabel(5))
	}
}

func TestErrorsAlwaysKept(t *testing.T) {
	r := NewRecorder(2, 3)
	// Crowd the fast bucket so errored fast requests can't win a slot.
	for i := 10; i <= 20; i++ {
		finishAt(r.Start("g", "a"), time.Duration(i)*time.Microsecond, nil)
	}
	for i := 1; i <= 5; i++ {
		finishAt(r.Start("g", "a"), time.Duration(i), fmt.Errorf("boom %d", i))
	}
	errs := r.Errors()
	if len(errs) != 3 {
		t.Fatalf("error ring holds %d, want 3", len(errs))
	}
	// Newest first: boom 5, 4, 3.
	for i, rec := range errs {
		if want := fmt.Sprintf("boom %d", 5-i); rec.Err != want {
			t.Errorf("errs[%d] = %q, want %q", i, rec.Err, want)
		}
	}
	// Errored records are still findable by id even though the bucket
	// evicted them.
	if r.Lookup(errs[0].ID) == nil {
		t.Error("errored record not found by Lookup")
	}
}

func TestInflightRegistry(t *testing.T) {
	r := NewRecorder(0, 0)
	f1 := r.Start("g1", "GQL")
	f2 := r.Start("g2", "CFL")
	f1.SetPhase("plan")
	f2.SetPhase("enumerate")
	if r.InflightCount() != 2 {
		t.Fatalf("inflight = %d, want 2", r.InflightCount())
	}
	infos := r.Inflight()
	if len(infos) != 2 || infos[0].ID != f1.ID() {
		t.Fatalf("inflight order: %+v", infos)
	}
	if infos[0].Phase != "plan" || infos[1].Phase != "enumerate" {
		t.Errorf("phases: %+v", infos)
	}
	finishAt(f1, time.Millisecond, nil)
	if r.InflightCount() != 1 {
		t.Fatalf("inflight after finish = %d, want 1", r.InflightCount())
	}
	// Idempotent finish: second call is a no-op.
	if rec := finishAt(f1, time.Second, nil); rec != nil {
		t.Error("double finish produced a record")
	}
	finishAt(f2, time.Millisecond, nil)
	if r.InflightCount() != 0 {
		t.Fatalf("inflight = %d, want 0", r.InflightCount())
	}
}

func TestSubscribers(t *testing.T) {
	r := NewRecorder(0, 0)
	var got []*Record
	r.Subscribe(func(rec *Record) { got = append(got, rec) })
	finishAt(r.Start("g", "a"), time.Millisecond, nil)
	finishAt(r.Start("g", "a"), time.Second, errors.New("x"))
	if len(got) != 2 || got[0].Latency != time.Millisecond || got[1].Err != "x" {
		t.Fatalf("subscriber saw %+v", got)
	}
	if got[0].Payload != nil {
		t.Errorf("payload = %v", got[0].Payload)
	}
}

// TestRecorderStress is the acceptance stress: 200 goroutines finishing
// flights with known latencies while readers snapshot concurrently;
// afterwards each bucket must retain exactly the slowest records.
// Run under -race via make race-stress.
func TestRecorderStress(t *testing.T) {
	const goroutines, perG = 200, 50
	r := NewRecorder(8, 64)
	var wg sync.WaitGroup
	stopReaders := make(chan struct{})
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stopReaders:
					return
				default:
					r.Snapshot()
					r.Inflight()
					r.InflightCount()
					r.Errors()
					r.Lookup(1)
				}
			}
		}()
	}
	var writers sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		writers.Add(1)
		go func(g int) {
			defer writers.Done()
			for i := 0; i < perG; i++ {
				f := r.Start("g", "a")
				f.SetPhase("enumerate")
				// Unique latency per record, all in the <1ms band.
				lat := time.Duration(g*perG + i + 1)
				var err error
				if i == perG-1 {
					err = errors.New("last")
				}
				finishAt(f, lat, err)
			}
		}(g)
	}
	writers.Wait()
	close(stopReaders)
	wg.Wait()

	if r.InflightCount() != 0 {
		t.Fatalf("inflight = %d after all finished", r.InflightCount())
	}
	snap := r.Snapshot()
	fast := snap[0]
	if fast.Count != goroutines*perG {
		t.Fatalf("band count = %d, want %d", fast.Count, goroutines*perG)
	}
	if len(fast.Records) != 8 {
		t.Fatalf("retained %d, want 8", len(fast.Records))
	}
	// The slowest 8 latencies overall are total, total-1, ...
	total := time.Duration(goroutines * perG)
	for i, rec := range fast.Records {
		if want := total - time.Duration(i); rec.Latency != want {
			t.Errorf("slot %d latency %v, want %v", i, rec.Latency, want)
		}
	}
	if errs := r.Errors(); len(errs) != 64 {
		t.Fatalf("error ring holds %d, want 64", len(errs))
	}
}

// TestWatchSetsCancelled: a watched flight's flag is set within a tick
// or so of its context's end, an unwatched one's never, and the watcher
// goroutine ends once no watched flight is in flight.
func TestWatchSetsCancelled(t *testing.T) {
	r := NewRecorder(0, 0)
	ctx, cancel := context.WithCancel(context.Background())
	f := r.StartWatch(ctx, "g", "a")
	plain := r.Start("g", "a")
	if f.Cancelled().Load() {
		t.Fatal("flag set before the cancel")
	}
	cancel()
	deadline := time.Now().Add(time.Second)
	for !f.Cancelled().Load() {
		if time.Now().After(deadline) {
			t.Fatal("flag not set a second after the cancel")
		}
		time.Sleep(time.Millisecond)
	}
	if plain.Cancelled().Load() {
		t.Error("an unwatched flight's flag was set")
	}
	f.Finish(nil, nil, nil)
	plain.Finish(nil, nil, nil)
	for deadline = time.Now().Add(2 * time.Second); ; time.Sleep(time.Millisecond) {
		r.mu.Lock()
		watching := r.watching
		r.mu.Unlock()
		if !watching {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the watcher still runs with nothing in flight")
		}
	}
}

// TestWatchStress starts and finishes watched flights from many
// goroutines, half of them cancelled while in flight, under the race
// detector (make race-stress): every cancelled flight sees its flag.
func TestWatchStress(t *testing.T) {
	r := NewRecorder(0, 0)
	var wg sync.WaitGroup
	for g := range 16 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 20 {
				ctx, cancel := context.WithCancel(context.Background())
				f := r.StartWatch(ctx, "g", "a")
				f.SetPhase("enumerate")
				if (g+i)%2 == 0 {
					cancel()
					for !f.Cancelled().Load() {
						time.Sleep(100 * time.Microsecond)
					}
				}
				f.Finish(nil, nil, nil)
				cancel()
			}
		}()
	}
	wg.Wait()
	if n := r.InflightCount(); n != 0 {
		t.Fatalf("inflight = %d after all finished", n)
	}
}
