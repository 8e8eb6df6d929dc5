package trace

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// maxSampleURL bounds the URL bytes copied into a Sample. The copy is
// inline because pooled request objects reuse their URL backing store the
// moment the request is released.
const maxSampleURL = 64

// Sample is one finished request, recorded into the ring. It holds no
// reference into the request or its trace: the URL and the spans are
// copied in, so the trace the request ran with may serve the connection's
// next request while the ring keeps the sample.
type Sample struct {
	TraceID uint64
	Node    string
	Method  string

	urlBuf [maxSampleURL]byte
	urlLen uint8

	Start   time.Time
	Elapsed time.Duration

	// Spans holds the first NSpans timed phases, copied from the request's
	// Act; SpansDropped counts spans that did not fit.
	Spans        [MaxSpans]Span
	NSpans       int
	SpansDropped int

	Status       int
	Generated    bool
	FromCache    bool
	Terminated   bool
	RejectedBusy bool
	Offloaded    bool
	OffloadPeer  string

	HedgedReads   int32
	HedgeWins     int32
	LeaseAcquires int32
	LeaseDenials  int32
	LeaseRenewals int32
	LeaseReleases int32
	FencedWrites  int32
	FenceRejects  int32
	FenceToken    uint64

	// Generation is the deployment generation of the site script the
	// request executed against; 0 when the site had no live deployment.
	Generation uint64
}

// SetURL copies the request URL's host and path into the sample's
// inline buffer (no allocation, no concatenation), truncating past
// maxSampleURL bytes.
func (s *Sample) SetURL(host, path string) {
	n := copy(s.urlBuf[:], host)
	n += copy(s.urlBuf[n:], path)
	s.urlLen = uint8(n)
}

// URL returns the recorded (possibly truncated) request URL. It
// allocates, so it is for dump paths only.
func (s *Sample) URL() string { return string(s.urlBuf[:s.urlLen]) }

// FillFromAct copies an Act's recorded activity, its spans included, into
// the sample.
func (s *Sample) FillFromAct(a *Act) {
	if a == nil {
		return
	}
	s.TraceID = a.ID
	s.Spans, s.NSpans = a.Spans, a.NSpans
	s.SpansDropped = a.SpansDropped
	s.HedgedReads = a.HedgedReads
	s.HedgeWins = a.HedgeWins
	s.LeaseAcquires = a.LeaseAcquires
	s.LeaseDenials = a.LeaseDenials
	s.LeaseRenewals = a.LeaseRenewals
	s.LeaseReleases = a.LeaseReleases
	s.FencedWrites = a.FencedWrites
	s.FenceRejects = a.FenceRejects
	s.FenceToken = a.FenceToken
}

// Ring is a fixed-size buffer of the most recent Samples, held by value in
// slots allocated once. A writer claims a slot with one atomic add and
// copies its sample in under the slot's lock; a reader copies each slot out
// under the same lock. Recording allocates nothing, and no write blocks
// another but for a reader copying the same slot.
type Ring struct {
	slots []ringSlot
	next  atomic.Uint64
}

// ringSlot is one place in the ring: the sample last recorded there, if
// any.
type ringSlot struct {
	mu  sync.Mutex
	s   Sample
	set bool
}

// DefaultRingSize is the per-node sample capacity when none is
// configured.
const DefaultRingSize = 256

// NewRing returns a ring holding up to n samples (DefaultRingSize if
// n <= 0).
func NewRing(n int) *Ring {
	if n <= 0 {
		n = DefaultRingSize
	}
	return &Ring{slots: make([]ringSlot, n)}
}

// Record copies a finished sample into the ring, overwriting the oldest
// once the ring is full. The ring keeps nothing of s itself.
func (r *Ring) Record(s *Sample) {
	slot := &r.slots[(r.next.Add(1)-1)%uint64(len(r.slots))]
	slot.mu.Lock()
	slot.s, slot.set = *s, true
	slot.mu.Unlock()
}

// Len returns how many samples the ring currently holds.
func (r *Ring) Len() int {
	n := r.next.Load()
	if n > uint64(len(r.slots)) {
		return len(r.slots)
	}
	return int(n)
}

// Snapshot returns copies of the current samples, unordered.
func (r *Ring) Snapshot() []*Sample {
	copies := make([]Sample, 0, len(r.slots))
	for i := range r.slots {
		slot := &r.slots[i]
		slot.mu.Lock()
		if slot.set {
			copies = append(copies, slot.s)
		}
		slot.mu.Unlock()
	}
	out := make([]*Sample, len(copies))
	for i := range copies {
		out[i] = &copies[i]
	}
	return out
}

// Slowest returns up to n recent samples ordered by descending elapsed
// time — the admin surface's "what has been slow lately" dump.
func (r *Ring) Slowest(n int) []*Sample {
	out := r.Snapshot()
	sort.Slice(out, func(i, j int) bool { return out[i].Elapsed > out[j].Elapsed })
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}
