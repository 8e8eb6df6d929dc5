package largeobject

import (
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"nakika/internal/httpmsg"
	"nakika/internal/store"
)

// Tier is the node-local chunked large-object store: a manifest table over
// a segment slab. A complete manifest is a record of the slab's log, appended
// when it completes or is refreshed and tombstoned when it is dropped, under
// the table's lock, so the log's last word on a key is the table's and the
// open's replay rebuilds the table. Manifests still being ingested live only
// in memory — after a crash the object is simply refetched or adopted from a
// peer's copy, which is cheaper than recovering torn ingests. Like
// a segment, a manifest record is carried forward when read while aging and
// otherwise reclaimed.
//
// Manifests handed out by the tier are shared and must be treated as
// immutable; every update goes through PutManifest/AppendSegment, which
// replace the stored value wholesale.
type Tier struct {
	slab    *Slab
	segSize int64

	// mu guards the table and is held across the slab calls that append or
	// tombstone a manifest record, so it is always taken before the slab's.
	mu        sync.Mutex
	manifests map[string]*Manifest
}

// OpenTier opens (or creates) a tier on fs with the given segment size and
// slab byte capacity, replaying the surviving segments and manifests. The
// log has one maximal record's room for manifests beside the segments'.
func OpenTier(fs store.FS, segSize, capacity int64) (*Tier, error) {
	slab, manifests, err := openSlab(fs, segSize, capacity, 1)
	if err != nil {
		return nil, err
	}
	return &Tier{slab: slab, segSize: segSize, manifests: manifests}, nil
}

// Close closes the slab's log, so after a crash nothing but the tier that
// reopened the directory writes to it.
func (t *Tier) Close() error { return t.slab.Close() }

// SegSize returns the tier's segment size.
func (t *Tier) SegSize() int64 { return t.segSize }

// Manifest returns the current manifest for key, shared (do not mutate). A
// manifest read while its record is aging is appended afresh.
func (t *Tier) Manifest(key string) (*Manifest, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	m, ok := t.manifests[key]
	if ok && m.Complete() && t.slab.manifestAging(key) {
		t.slab.putManifest(key, m) // carried forward; on failure the key's record is dropped
	}
	return m, ok
}

// Len returns the number of manifests in the table.
func (t *Tier) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.manifests)
}

// PutManifest installs m (a private clone is stored). A complete manifest is
// appended to the log; an incomplete one stays memory-only, and the key's
// record, if any, is dropped.
func (t *Tier) PutManifest(m *Manifest) error {
	cp := m.Clone()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.manifests[cp.Key] = cp
	if !cp.Complete() {
		t.slab.putManifest(cp.Key, nil)
		return nil
	}
	return t.slab.putManifest(cp.Key, cp)
}

// AppendSegment records id as the next ingested segment of key's manifest,
// returning the updated manifest. It is a no-op if ord is not the next
// segment ordinal (concurrent ingests race benignly).
func (t *Tier) AppendSegment(key string, ord int, id SegID) (*Manifest, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	m, ok := t.manifests[key]
	if !ok {
		return nil, fmt.Errorf("largeobject: append segment: no manifest for %q", key)
	}
	if ord != len(m.Segments) {
		return m, nil
	}
	cp := m.Clone()
	cp.Segments = append(cp.Segments, id)
	t.manifests[key] = cp
	if cp.Complete() {
		return cp, t.slab.putManifest(key, cp)
	}
	return cp, nil
}

// RefreshManifest renews key's manifest after a successful revalidation:
// Fetched moves to fetched and hdr's headers (the 304's updated metadata —
// new Cache-Control, Expires, validators) overwrite the stored ones, per RFC
// 9111 §3.2. Segment ids and bodies are untouched. Returns the refreshed
// manifest, or false when key has no manifest.
func (t *Tier) RefreshManifest(key string, fetched time.Time, hdr http.Header) (*Manifest, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	m, ok := t.manifests[key]
	if !ok {
		return nil, false
	}
	cp := m.Clone()
	cp.Fetched = fetched
	if cp.Header == nil {
		cp.Header = make(http.Header, len(hdr))
	}
	for k, vs := range hdr {
		cp.Header[k] = append([]string(nil), vs...)
	}
	t.manifests[key] = cp
	if cp.Complete() {
		// Recording the renewed expiry is best-effort; if the record cannot
		// be appended the key's is dropped, and a crash costs one refetch.
		t.slab.putManifest(key, cp)
	}
	return cp, true
}

// DeleteManifest drops key's manifest from the table and tombstones its
// record. Its segments age out of the slab with the log segments that hold
// them.
func (t *Tier) DeleteManifest(key string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	delete(t.manifests, key)
	t.slab.putManifest(key, nil)
}

// PutSegment stores one segment body in the slab.
func (t *Tier) PutSegment(id SegID, data []byte) error { return t.slab.Put(id, data) }

// GetSegment returns one segment body from the slab, as a copy the caller
// owns (safe to share between goroutines and to hand to the transport).
func (t *Tier) GetSegment(id SegID) ([]byte, bool) { return t.slab.Get(id) }

// Resident returns how many of m's segments are in the slab.
func (t *Tier) Resident(m *Manifest) int { return t.slab.Resident(m) }

// IngestBody chunks a complete body into the tier: every segment is hashed
// and stored, and the complete manifest is installed and appended. Used for
// whole bodies already in memory; streaming ingest drives AppendSegment
// instead.
func (t *Tier) IngestBody(key string, status int, header http.Header, fetched time.Time, body []byte) (*Manifest, error) {
	m := &Manifest{
		Key:      key,
		Status:   status,
		Header:   cloneHeader(header),
		TotalLen: int64(len(body)),
		SegSize:  t.segSize,
		Fetched:  fetched,
	}
	n := m.NumSegments()
	m.Segments = make([]SegID, 0, n)
	for i := 0; i < n; i++ {
		from, to := m.SegmentSpan(i)
		seg := body[from:to]
		id := HashSegment(seg)
		if err := t.slab.Put(id, seg); err != nil {
			return nil, err
		}
		m.Segments = append(m.Segments, id)
	}
	if err := t.PutManifest(m); err != nil {
		return nil, err
	}
	return m, nil
}

// Stats is a point-in-time snapshot of tier telemetry.
type Stats struct {
	Manifests int
	Slab      SlabStats
}

// Stats returns current telemetry.
func (t *Tier) Stats() Stats {
	return Stats{Manifests: t.Len(), Slab: t.slab.Stats()}
}

// ---------------------------------------------------------------------------
// Lazy segment stream
// ---------------------------------------------------------------------------

// Fetcher resolves a missing segment: given the manifest and a segment
// ordinal, it returns the segment's bytes (typically after fetching them
// from a peer or the origin and storing them in the slab).
type Fetcher func(m *Manifest, ord int) ([]byte, error)

// NewStream returns a BodyStream over key's object. Reads resolve segments
// lazily: the slab first (consulting the *current* manifest, so segments
// ingested after the stream was created are visible), then fetch. A nil
// fetch serves only resident segments and errors on a gap.
func (t *Tier) NewStream(m *Manifest, fetch Fetcher) httpmsg.BodyStream {
	return &segStream{t: t, m: m, fetch: fetch}
}

type segStream struct {
	t     *Tier
	m     *Manifest
	fetch Fetcher
}

// current returns the freshest manifest for the stream's key: ingest may
// have appended segment ids since the stream was built.
func (ss *segStream) current() *Manifest {
	if m, ok := ss.t.Manifest(ss.m.Key); ok {
		return m
	}
	return ss.m
}

func (ss *segStream) TotalLen() int64 { return ss.m.TotalLen }

// Progress reports the object's total segment count and how many are
// resident in the slab right now — execution traces surface it so operators
// can see how much of a streamed response was served locally.
func (ss *segStream) Progress() (segments, resident int) {
	m := ss.current()
	return m.NumSegments(), ss.t.Resident(m)
}

func (ss *segStream) Range(from, to int64) (io.ReadCloser, error) {
	if from < 0 || to > ss.m.TotalLen || from > to {
		return nil, fmt.Errorf("largeobject: range [%d,%d) outside %d-byte object", from, to, ss.m.TotalLen)
	}
	return &segReader{ss: ss, pos: from, end: to}, nil
}

// segReader reads [pos, end), pulling one segment at a time. It is the only
// holder of slab views: at most one at a time, released when the reader
// moves to the next segment, reaches end and on Close. A reader is used by
// one goroutine.
type segReader struct {
	ss       *segStream
	pos, end int64
	cur      []byte // bytes of the segment containing pos, full segment
	release  func() // returns cur's pooled buffer; nil when cur is an owned slice
	curOrd   int
	closed   bool
}

// next returns the unread bytes of the segment containing pos, up to end,
// loading the segment if it is not the current one.
func (r *segReader) next() ([]byte, error) {
	if r.closed {
		return nil, fmt.Errorf("largeobject: read after close")
	}
	if r.pos >= r.end {
		return nil, io.EOF
	}
	ord := int(r.pos / r.ss.m.SegSize)
	if r.cur == nil || ord != r.curOrd {
		r.drop()
		data, release, err := r.load(ord)
		if err != nil {
			return nil, err
		}
		r.cur, r.release, r.curOrd = data, release, ord
	}
	segStart := int64(ord) * r.ss.m.SegSize
	off := r.pos - segStart
	avail := int64(len(r.cur)) - off
	if avail <= 0 {
		return nil, fmt.Errorf("largeobject: segment %d short: have %d bytes, need offset %d", ord, len(r.cur), off)
	}
	if want := r.end - r.pos; avail > want {
		avail = want
	}
	return r.cur[off : off+avail], nil
}

// advance moves pos past n delivered bytes; the segment is let go as soon
// as the range is finished.
func (r *segReader) advance(n int) {
	r.pos += int64(n)
	if r.pos >= r.end {
		r.drop()
	}
}

// drop lets go of the current segment, returning a view's buffer.
func (r *segReader) drop() {
	if r.release != nil {
		r.release()
		r.release = nil
	}
	r.cur = nil
}

func (r *segReader) Read(p []byte) (int, error) {
	chunk, err := r.next()
	if err != nil {
		return 0, err
	}
	n := copy(p, chunk)
	r.advance(n)
	return n, nil
}

// WriteTo implements io.WriterTo: each segment's share of the range goes to
// w straight from the segment buffer in one Write, so io.Copy needs no
// buffer of its own.
func (r *segReader) WriteTo(w io.Writer) (int64, error) {
	var total int64
	for {
		chunk, err := r.next()
		if err == io.EOF {
			return total, nil
		}
		if err != nil {
			return total, err
		}
		n, err := w.Write(chunk)
		total += int64(n)
		r.advance(n)
		if err != nil {
			return total, err
		}
	}
}

// load returns segment ord's bytes: a slab view first (id known), then
// fetch, whose bytes are an owned slice with no release.
func (r *segReader) load(ord int) ([]byte, func(), error) {
	m := r.ss.current()
	if ord < len(m.Segments) {
		if data, release, ok := r.ss.t.slab.view(m.Segments[ord]); ok {
			return data, release, nil
		}
	}
	if r.ss.fetch == nil {
		return nil, nil, fmt.Errorf("largeobject: segment %d of %q not resident", ord, m.Key)
	}
	data, err := r.ss.fetch(m, ord)
	if err != nil {
		return nil, nil, fmt.Errorf("largeobject: fetch segment %d of %q: %w", ord, m.Key, err)
	}
	from, to := m.SegmentSpan(ord)
	if int64(len(data)) != to-from {
		return nil, nil, fmt.Errorf("largeobject: segment %d of %q: fetched %d bytes, want %d", ord, m.Key, len(data), to-from)
	}
	return data, nil, nil
}

func (r *segReader) Close() error {
	r.closed = true
	r.drop()
	return nil
}
