package bench

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync/atomic"

	"nakika/internal/apps/largefile"
	"nakika/internal/core"
	"nakika/internal/httpmsg"
)

// The large-object experiment: the chunked tier's end-to-end behaviour on a
// single warm node, measured as deterministic fetch counts.
//
// The fetch counters are exact: the experiment drives a known sequence of
// requests single-threaded against an in-process origin and counts how many
// full-body and range fetches reach it. Those counts are properties of the
// tier's algorithms (single-flight, manifest residency, oldest-first reclaim),
// not of the runner, so BENCH_largeobject.json is a byte-exact golden. The
// streaming rates are benchmark/'s large_range workload (ttfb_p50_us,
// largeobject.ingest_mb_per_s, largeobject.range_read_mb_per_s).

// Experiment geometry. 24 segments of 256 KiB; the eviction phase keeps a
// slab with room for only 8, so a warm sequential re-read must refetch evicted
// segments by ranged origin requests.
const (
	lobObjectBytes  = 6 << 20
	lobSegmentBytes = 256 << 10
	lobThreshold    = 1 << 20
	lobEvictSlots   = 8
	lobWarmReads    = 8
	lobRangeReads   = 32
	lobRangeSpan    = 100_000
)

// LargeObjectResult is the experiment payload written to
// BENCH_largeobject.json.
type LargeObjectResult struct {
	ObjectBytes  int64 `json:"object_bytes"`
	SegmentBytes int64 `json:"segment_bytes"`
	Segments     int   `json:"segments"`

	// ColdOriginFullFetches is how many full-body origin fetches the cold
	// streamed fetch cost (1: the pull-through ingest shares one body with
	// the client).
	ColdOriginFullFetches int64 `json:"cold_origin_full_fetches"`

	// WarmReads whole-body re-reads ran after ingest; they must all stream
	// from resident segments, so the origin count is 0.
	WarmReads         int   `json:"warm_reads"`
	WarmOriginFetches int64 `json:"warm_origin_fetches"`

	// RangeReads warm Range requests were served 206 from resident
	// segments; again the origin count is 0.
	RangeReads             int   `json:"range_reads"`
	WarmRangeOriginFetches int64 `json:"warm_range_origin_fetches"`

	// The eviction phase: ingest through a slab smaller than the object,
	// then re-read the whole object sequentially. Every evicted segment
	// comes back as exactly one ranged origin refetch — the count is the
	// reclaim rule's sequential-scan cost.
	EvictionSlabSlots     int   `json:"eviction_slab_slots"`
	EvictedFullRefetches  int64 `json:"evicted_full_refetches"`
	EvictedRangeRefetches int64 `json:"evicted_range_refetches"`
}

// lobBenchOrigin is the in-process origin: deterministic largefile content,
// single-range support, and exact fetch counters. It implements core.Fetcher;
// the streaming phase wraps it in lobStreamOrigin to add DoStream.
type lobBenchOrigin struct {
	size     int64
	fullHits atomic.Int64
	rngHits  atomic.Int64
}

func (o *lobBenchOrigin) body(from, to int64) []byte {
	buf := make([]byte, to-from)
	largefile.Fill(buf, from)
	return buf
}

func (o *lobBenchOrigin) Do(req *httpmsg.Request) (*httpmsg.Response, error) {
	if req.Path() != "/blob" {
		return httpmsg.NewTextResponse(404, "none"), nil
	}
	from, to := int64(0), o.size
	resp := httpmsg.NewResponse(http.StatusOK)
	if spec := req.Header.Get("Range"); spec != "" {
		var err error
		from, to, err = httpmsg.ParseRange(spec, o.size)
		if err != nil {
			return nil, fmt.Errorf("bench: origin range %q: %w", spec, err)
		}
		resp.Status = http.StatusPartialContent
		resp.Header.Set("Content-Range", fmt.Sprintf("bytes %d-%d/%d", from, to-1, o.size))
		o.rngHits.Add(1)
	} else {
		o.fullHits.Add(1)
	}
	resp.Header.Set("Content-Type", "application/octet-stream")
	resp.Header.Set("Cache-Control", "max-age=600")
	resp.Header.Set("Accept-Ranges", "bytes")
	resp.Body = o.body(from, to)
	return resp, nil
}

// lobStreamOrigin adds DoStream so the node's cold fetch takes the
// pull-through streaming path instead of buffering the body first.
type lobStreamOrigin struct {
	*lobBenchOrigin
}

func (o *lobStreamOrigin) DoStream(req *httpmsg.Request) (core.StreamHead, io.ReadCloser, error) {
	if req.Path() != "/blob" || req.Header.Get("Range") != "" {
		resp, err := o.Do(req)
		if err != nil {
			return core.StreamHead{}, nil, err
		}
		head := core.StreamHead{Status: resp.Status, Header: resp.Header, Length: int64(len(resp.Body))}
		return head, io.NopCloser(strings.NewReader(string(resp.Body))), nil
	}
	o.fullHits.Add(1)
	h := make(http.Header)
	h.Set("Content-Type", "application/octet-stream")
	h.Set("Cache-Control", "max-age=600")
	h.Set("Accept-Ranges", "bytes")
	return core.StreamHead{Status: http.StatusOK, Header: h, Length: o.size},
		&lobFillReader{size: o.size}, nil
}

// lobFillReader streams the deterministic content without materializing it.
type lobFillReader struct {
	size int64
	off  int64
}

func (r *lobFillReader) Read(p []byte) (int, error) {
	if r.off >= r.size {
		return 0, io.EOF
	}
	if rem := r.size - r.off; int64(len(p)) > rem {
		p = p[:rem]
	}
	largefile.Fill(p, r.off)
	r.off += int64(len(p))
	return len(p), nil
}

func (r *lobFillReader) Close() error { return nil }

func lobBenchNode(upstream core.Fetcher, capacity int64) (*core.Node, error) {
	return core.NewNode(core.Config{
		Name:                 "lob-bench",
		Region:               "local",
		Upstream:             upstream,
		LargeObjectThreshold: lobThreshold,
		LargeObjectSegment:   lobSegmentBytes,
		LargeObjectCapacity:  capacity,
	})
}

func lobBenchRequest() *httpmsg.Request {
	req := httpmsg.MustRequest("GET", "http://big.bench/blob")
	req.ClientIP = "10.0.0.1"
	return req
}

// lobVerifyStream reads resp's body stream end to end, checking every byte
// against the offset-derived content.
func lobVerifyStream(resp *httpmsg.Response) error {
	if resp.Stream == nil {
		return fmt.Errorf("bench: response is not streamed")
	}
	rc, err := resp.Stream.Range(0, resp.TotalLen())
	if err != nil {
		return err
	}
	defer rc.Close()
	buf := make([]byte, 64<<10)
	want := make([]byte, 64<<10)
	off := int64(0)
	for {
		n, rerr := rc.Read(buf)
		if n > 0 {
			largefile.Fill(want[:n], off)
			if string(buf[:n]) != string(want[:n]) {
				return fmt.Errorf("bench: stream content mismatch at offset %d", off)
			}
			off += int64(n)
		}
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			return rerr
		}
	}
	if off != lobObjectBytes {
		return fmt.Errorf("bench: stream delivered %d of %d bytes", off, lobObjectBytes)
	}
	return nil
}

// RunLargeObject runs the experiment: a cold streamed ingest, lobWarmReads
// warm whole-body re-reads, a deterministic sweep of warm Range requests,
// and the eviction phase on a slab smaller than the object.
func RunLargeObject() (LargeObjectResult, error) {
	res := LargeObjectResult{
		ObjectBytes:       lobObjectBytes,
		SegmentBytes:      lobSegmentBytes,
		Segments:          (lobObjectBytes + lobSegmentBytes - 1) / lobSegmentBytes,
		EvictionSlabSlots: lobEvictSlots,
	}

	// Phase 1: cold streamed fetch through a slab that holds the whole
	// object, then warm whole-body and Range reads against it.
	origin := &lobStreamOrigin{&lobBenchOrigin{size: lobObjectBytes}}
	node, err := lobBenchNode(origin, 4*lobObjectBytes)
	if err != nil {
		return res, err
	}

	resp, _, err := node.Handle(lobBenchRequest())
	if err != nil {
		return res, fmt.Errorf("bench: cold fetch: %w", err)
	}
	if resp.Status != 200 {
		return res, fmt.Errorf("bench: cold fetch status %d", resp.Status)
	}
	if err := lobVerifyStream(resp); err != nil {
		return res, fmt.Errorf("bench: cold fetch: %w", err)
	}
	res.ColdOriginFullFetches = origin.fullHits.Load()
	if st := node.LargeObject(); st.StreamIngests != 1 {
		return res, fmt.Errorf("bench: cold fetch did not stream-ingest (stats %+v)", st)
	}

	// Warm whole-body re-reads: every one must be a streamed serve from
	// resident segments with zero origin traffic.
	for ; res.WarmReads < lobWarmReads; res.WarmReads++ {
		resp, trace, err := node.Handle(lobBenchRequest())
		if err != nil {
			return res, fmt.Errorf("bench: warm read: %w", err)
		}
		if trace == nil || !trace.Streamed {
			return res, fmt.Errorf("bench: warm read was not a streamed serve")
		}
		if err := lobVerifyStream(resp); err != nil {
			return res, fmt.Errorf("bench: warm read: %w", err)
		}
	}
	res.WarmOriginFetches = origin.fullHits.Load() - res.ColdOriginFullFetches + origin.rngHits.Load()

	// Warm Range sweep: a deterministic arithmetic walk of single-range
	// requests, all answered 206 from resident segments.
	rngBefore := origin.fullHits.Load() + origin.rngHits.Load()
	for i := 0; i < lobRangeReads; i++ {
		from := (int64(i) * 131_071) % (lobObjectBytes - lobRangeSpan)
		req := lobBenchRequest()
		req.Header.Set("Range", fmt.Sprintf("bytes=%d-%d", from, from+lobRangeSpan-1))
		resp, _, err := node.Handle(req)
		if err != nil {
			return res, fmt.Errorf("bench: range read %d: %w", i, err)
		}
		resp = httpmsg.ApplyRange(req, resp)
		if resp.Status != http.StatusPartialContent {
			return res, fmt.Errorf("bench: range read %d status %d", i, resp.Status)
		}
		if err := resp.Materialize(); err != nil {
			return res, fmt.Errorf("bench: range read %d: %w", i, err)
		}
		want := make([]byte, lobRangeSpan)
		largefile.Fill(want, from)
		if string(resp.Body) != string(want) {
			return res, fmt.Errorf("bench: range read %d content mismatch at %d", i, from)
		}
		res.RangeReads++
	}
	res.WarmRangeOriginFetches = origin.fullHits.Load() + origin.rngHits.Load() - rngBefore

	// Phase 2: eviction. A buffered (non-streaming) origin and a slab of
	// lobEvictSlots slots: the whole-body ingest completes but only the
	// last lobEvictSlots segments stay resident, so a sequential re-read
	// pulls every evicted segment back as one ranged refetch each.
	evOrigin := &lobBenchOrigin{size: lobObjectBytes}
	evNode, err := lobBenchNode(evOrigin, lobEvictSlots*lobSegmentBytes)
	if err != nil {
		return res, err
	}
	resp, _, err = evNode.Handle(lobBenchRequest())
	if err != nil {
		return res, fmt.Errorf("bench: eviction cold fetch: %w", err)
	}
	if resp.Status != 200 {
		return res, fmt.Errorf("bench: eviction cold fetch status %d", resp.Status)
	}
	if st := evNode.LargeObject(); st.WholeIngests != 1 {
		return res, fmt.Errorf("bench: eviction cold fetch did not ingest (stats %+v)", st)
	}
	evFull, evRng := evOrigin.fullHits.Load(), evOrigin.rngHits.Load()
	resp, trace, err := evNode.Handle(lobBenchRequest())
	if err != nil {
		return res, fmt.Errorf("bench: eviction warm read: %w", err)
	}
	if trace == nil || !trace.Streamed {
		return res, fmt.Errorf("bench: eviction warm read was not a streamed serve")
	}
	if err := lobVerifyStream(resp); err != nil {
		return res, fmt.Errorf("bench: eviction warm read: %w", err)
	}
	res.EvictedFullRefetches = evOrigin.fullHits.Load() - evFull
	res.EvictedRangeRefetches = evOrigin.rngHits.Load() - evRng
	if res.EvictedFullRefetches != 0 {
		return res, fmt.Errorf("bench: eviction re-read refetched the full body %d times", res.EvictedFullRefetches)
	}
	if res.EvictedRangeRefetches == 0 {
		return res, fmt.Errorf("bench: eviction re-read never hit the origin — slab larger than intended?")
	}
	return res, nil
}

// FormatLargeObject renders the experiment for the console.
func FormatLargeObject(r LargeObjectResult) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "object: %d MiB in %d segments of %d KiB\n",
		r.ObjectBytes>>20, r.Segments, r.SegmentBytes>>10)
	fmt.Fprintf(&sb, "cold streamed fetch:  %d origin full fetch(es)\n", r.ColdOriginFullFetches)
	fmt.Fprintf(&sb, "warm whole re-reads:  %d reads, %d origin fetches\n",
		r.WarmReads, r.WarmOriginFetches)
	fmt.Fprintf(&sb, "warm range sweep:     %d reads (206), %d origin fetches\n",
		r.RangeReads, r.WarmRangeOriginFetches)
	fmt.Fprintf(&sb, "eviction re-read:     %d-slot slab, %d ranged refetches, %d full refetches\n",
		r.EvictionSlabSlots, r.EvictedRangeRefetches, r.EvictedFullRefetches)
	return sb.String()
}
