// Package trace implements Na Kika's cross-node request tracing: a
// 64-bit trace id minted at the ingress node and propagated over every
// RPC a request fans out into (offload forwards, hedged replica reads,
// lease arbitration), per-request activity records (Acts) that the
// pipeline and host layers stamp span timings and side-effect counters
// into, and a lock-free ring of recent request samples the admin
// surface dumps as JSON.
//
// Everything here is built for the hot path: an Act lives inline inside
// the pipeline trace (no allocation), every recorder is nil-safe so
// callers never branch on "is tracing on", and recording a finished
// request into the ring allocates nothing: the Sample is copied into a
// slot the ring allocated once.
package trace

import (
	"sync/atomic"
	"time"
)

// MaxSpans bounds the per-request span buffer. A request that fans out
// past the bound keeps its first MaxSpans spans; the drop is recorded in
// SpansDropped so dumps are honest about truncation.
const MaxSpans = 8

// Span is one timed phase of a request: a pipeline stage handler run,
// the origin fetch, or a remote hop. Start is the offset from request
// ingress on the recording node.
type Span struct {
	Name  string        `json:"name"`
	Start time.Duration `json:"start_ns"`
	Dur   time.Duration `json:"dur_ns"`
}

// Act is the per-request activity record. It is embedded by value in
// the pipeline trace, so stamping it allocates nothing; every method is
// nil-safe so instrumented code paths need no tracing-enabled branch.
// An Act is written by the single goroutine executing its request.
type Act struct {
	// ID is the request's cross-node trace id; zero means untraced.
	ID uint64

	// Spans holds the first NSpans timed phases; SpansDropped counts
	// spans that did not fit.
	Spans        [MaxSpans]Span
	NSpans       int
	SpansDropped int

	// Hedged replica reads issued on behalf of this request, and how
	// many of them the hedge (not the owner) won.
	HedgedReads int32
	HedgeWins   int32

	// Lease activity performed by this request's handlers.
	LeaseAcquires int32
	LeaseDenials  int32
	LeaseRenewals int32
	LeaseReleases int32

	// Fenced writes issued under a lease token, and how many were
	// rejected by a store's fence floor. FenceToken is the last token
	// the request wrote (or attempted to write) under.
	FencedWrites int32
	FenceRejects int32
	FenceToken   uint64
}

// AddSpan records one timed phase. Past MaxSpans the span is counted as
// dropped instead.
func (a *Act) AddSpan(name string, start, dur time.Duration) {
	if a == nil {
		return
	}
	if a.NSpans >= MaxSpans {
		a.SpansDropped++
		return
	}
	a.Spans[a.NSpans] = Span{Name: name, Start: start, Dur: dur}
	a.NSpans++
}

// RecordHedge records one hedged replica read; won says whether the
// hedge beat the owner.
func (a *Act) RecordHedge(won bool) {
	if a == nil {
		return
	}
	a.HedgedReads++
	if won {
		a.HedgeWins++
	}
}

// RecordLeaseAcquire records one acquire attempt and, when granted, the
// fencing token it produced.
func (a *Act) RecordLeaseAcquire(granted bool, token uint64) {
	if a == nil {
		return
	}
	if granted {
		a.LeaseAcquires++
		a.FenceToken = token
	} else {
		a.LeaseDenials++
	}
}

// RecordLeaseRenew records one renew attempt.
func (a *Act) RecordLeaseRenew(ok bool) {
	if a == nil {
		return
	}
	if ok {
		a.LeaseRenewals++
	} else {
		a.LeaseDenials++
	}
}

// RecordLeaseRelease records one release.
func (a *Act) RecordLeaseRelease() {
	if a == nil {
		return
	}
	a.LeaseReleases++
}

// RecordFencedPut records one fenced write under token; rejected says
// the store's fence floor refused it.
func (a *Act) RecordFencedPut(token uint64, rejected bool) {
	if a == nil {
		return
	}
	a.FenceToken = token
	if rejected {
		a.FenceRejects++
	} else {
		a.FencedWrites++
	}
}

// IDGen mints trace ids. Ids are a splitmix64 scramble of a seed hashed
// from the node name plus a per-node counter, so they are unique across
// a cluster in practice, well-distributed, and — critically for the
// deterministic cluster harness — reproducible run to run: no clock, no
// global randomness.
type IDGen struct {
	base uint64
	ctr  atomic.Uint64
}

// NewIDGen returns a generator seeded from the node name.
func NewIDGen(name string) *IDGen {
	// FNV-1a over the name gives each node a distinct id stream.
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= prime64
	}
	return &IDGen{base: h}
}

// Next returns the next trace id. Never zero: zero is the wire encoding
// for "untraced".
func (g *IDGen) Next() uint64 {
	id := splitmix64(g.base + g.ctr.Add(1))
	if id == 0 {
		id = 1
	}
	return id
}

// splitmix64 is the finalizer from Vigna's SplitMix64 generator.
func splitmix64(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
