package trace

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestIDGenDeterministicNonZeroDistinct(t *testing.T) {
	a, b := NewIDGen("node-0"), NewIDGen("node-0")
	seen := make(map[uint64]bool)
	for i := 0; i < 10_000; i++ {
		id := a.Next()
		if id == 0 {
			t.Fatal("zero trace id minted")
		}
		if seen[id] {
			t.Fatalf("duplicate id %d at step %d", id, i)
		}
		seen[id] = true
		if again := b.Next(); again != id {
			t.Fatalf("same seed diverged at step %d: %d vs %d", i, id, again)
		}
	}
	if NewIDGen("node-1").Next() == NewIDGen("node-2").Next() {
		t.Fatal("different nodes minted the same first id")
	}
}

func TestActRecordersAreNilSafe(t *testing.T) {
	var a *Act
	a.AddSpan("x", 0, time.Millisecond)
	a.RecordHedge(true)
	a.RecordLeaseAcquire(true, 7)
	a.RecordLeaseRenew(false)
	a.RecordLeaseRelease()
	a.RecordFencedPut(7, true)
}

func TestActSpanOverflowCountsDrops(t *testing.T) {
	var a Act
	for i := 0; i < MaxSpans+3; i++ {
		a.AddSpan("s", 0, time.Duration(i))
	}
	if a.NSpans != MaxSpans || a.SpansDropped != 3 {
		t.Fatalf("NSpans=%d dropped=%d, want %d and 3", a.NSpans, a.SpansDropped, MaxSpans)
	}
}

func TestActCounters(t *testing.T) {
	var a Act
	a.RecordHedge(false)
	a.RecordHedge(true)
	a.RecordLeaseAcquire(true, 3)
	a.RecordLeaseAcquire(false, 0)
	a.RecordLeaseRenew(true)
	a.RecordLeaseRelease()
	a.RecordFencedPut(3, false)
	a.RecordFencedPut(3, true)
	if a.HedgedReads != 2 || a.HedgeWins != 1 {
		t.Fatalf("hedges %d/%d, want 2/1", a.HedgedReads, a.HedgeWins)
	}
	if a.LeaseAcquires != 1 || a.LeaseDenials != 1 || a.LeaseRenewals != 1 || a.LeaseReleases != 1 {
		t.Fatalf("lease counters %+v", a)
	}
	if a.FencedWrites != 1 || a.FenceRejects != 1 || a.FenceToken != 3 {
		t.Fatalf("fence counters %+v", a)
	}
}

func TestSampleURLTruncates(t *testing.T) {
	var s Sample
	long := strings.Repeat("u", maxSampleURL+50)
	s.SetURL(long, "/p")
	if got := s.URL(); got != long[:maxSampleURL] {
		t.Fatalf("URL() = %d bytes, want %d", len(got), maxSampleURL)
	}
	s.SetURL("origin", "/a/b")
	if s.URL() != "origin/a/b" {
		t.Fatalf("URL() = %q", s.URL())
	}
}

func TestRingOverwritesOldestAndSortsSlowest(t *testing.T) {
	r := NewRing(4)
	for i := 1; i <= 6; i++ {
		r.Record(&Sample{TraceID: uint64(i), Elapsed: time.Duration(i)})
	}
	if r.Len() != 4 {
		t.Fatalf("Len = %d, want 4", r.Len())
	}
	got := r.Slowest(2)
	if len(got) != 2 || got[0].TraceID != 6 || got[1].TraceID != 5 {
		t.Fatalf("Slowest(2) = %+v, want ids 6,5", got)
	}
	// Ids 1 and 2 were overwritten.
	for _, s := range r.Snapshot() {
		if s.TraceID <= 2 {
			t.Fatalf("overwritten sample %d still present", s.TraceID)
		}
	}
}

// TestRingConcurrentRecordSnapshot exercises the lock-free ring under
// the race detector: many writers overwriting while readers snapshot.
func TestRingConcurrentRecordSnapshot(t *testing.T) {
	r := NewRing(32)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				s := &Sample{TraceID: uint64(w<<32 | i), Elapsed: time.Duration(i)}
				s.SetURL("origin", "/x")
				r.Record(s)
			}
		}(w)
	}
	for rd := 0; rd < 2; rd++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, s := range r.Slowest(10) {
					_ = s.URL()
					_ = s.TraceID
				}
			}
		}()
	}
	// Writers finish first, then release the readers.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	time.Sleep(10 * time.Millisecond)
	close(stop)
	<-done
}
