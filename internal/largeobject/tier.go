package largeobject

import (
	"bytes"
	"errors"
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
// immutable; every update goes through PutManifest, AppendSegment or
// RefreshManifest, which publish a new value. AppendSegment's shares the
// segment list's backing array with the one it follows: the list is only
// ever appended to, under the tier's lock, and only the table's latest
// manifest is, so what an earlier value sees of it never changes.
//
// The tier also keeps the ingests in flight, one per key at most: a
// manifest's segment list is the one record of an ingest's progress, and a
// stream's read of a segment not yet appended waits on the key's ingest.
type Tier struct {
	slab    *Slab
	segSize int64

	// mu guards the table, the ingests in flight (nil once the tier is
	// closed) and the wait count, and is held across the slab calls that
	// append or tombstone a manifest record, so it is always taken before
	// the slab's.
	mu        sync.Mutex
	manifests map[string]*entry
	ingests   map[string]*ingest
	waits     uint64
	// fetch is the resolver of the streams NewStream makes for a nil
	// Fetcher (SetFetcher).
	fetch Fetcher
}

// entry is one key's row of the tier's table: its manifest, the hash its
// manifest record is filed under in the slab's log (manifestHash, computed
// once per key), and the stream NewStream hands out for the manifest with
// the tier's own fetcher, made at the first ask.
type entry struct {
	m      *Manifest
	hash   uint64
	stream *segStream
}

// ingest is one object being chunked into the tier. Its readers wait on
// cond, under the tier's lock; err is its result once it has ended.
type ingest struct {
	m    *Manifest
	cond *sync.Cond
	err  error
}

// errClosed ends the ingests a tier's Close finds in flight.
var errClosed = errors.New("largeobject: tier closed")

// OpenTier opens (or creates) a tier on fs with the given segment size and
// slab byte capacity, replaying the surviving segments and manifests. The
// log has one maximal record's room for manifests beside the segments'.
func OpenTier(fs store.FS, segSize, capacity int64) (*Tier, error) {
	slab, manifests, err := openSlab(fs, segSize, capacity, 1)
	if err != nil {
		return nil, err
	}
	t := &Tier{slab: slab, segSize: segSize, manifests: make(map[string]*entry, len(manifests)), ingests: make(map[string]*ingest)}
	for key, m := range manifests {
		t.manifests[key] = &entry{m: m, hash: manifestHash(key)}
	}
	return t, nil
}

// SetFetcher sets the resolver of the streams NewStream makes for a nil
// Fetcher: the one a node asks for the segments its slab does not hold,
// set once, before the tier serves. Without it such a stream serves only
// resident segments.
func (t *Tier) SetFetcher(fetch Fetcher) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.fetch = fetch
}

// install publishes m as key's manifest, keeping the key's entry and with
// it the hash of its record.
func (t *Tier) install(key string, m *Manifest) *entry {
	e, ok := t.manifests[key]
	if !ok {
		e = &entry{hash: manifestHash(key)}
		t.manifests[key] = e
	}
	e.m = m
	return e
}

// Close closes the slab's log, so after a crash nothing but the tier that
// reopened the directory writes to it, and ends every ingest in flight with
// an error: its readers stop waiting, and it stores nothing more.
func (t *Tier) Close() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, in := range t.ingests {
		in.err = errClosed
		in.cond.Broadcast()
	}
	t.ingests = nil
	return t.slab.Close()
}

// Manifest returns the current manifest for key, shared (do not mutate). A
// manifest read while its record is aging is appended afresh.
func (t *Tier) Manifest(key string) (*Manifest, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.manifest(t.manifests[key])
}

// ManifestBytes is Manifest for a key held as bytes, as a request's cache
// key buffer holds it (httpmsg.Request.CacheKeyBytes): the lookup makes no
// key string.
func (t *Tier) ManifestBytes(key []byte) (*Manifest, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.manifest(t.manifests[string(key)])
}

// manifest is Manifest of e, the table's entry for a key or nil, under t.mu.
func (t *Tier) manifest(e *entry) (*Manifest, bool) {
	if e == nil {
		return nil, false
	}
	if e.m.Complete() && t.slab.manifestAging(e.hash) {
		t.slab.writeManifest(e.hash, e.m.Key, e.m) // carried forward; on failure the key's record is dropped
	}
	return e.m, true
}

// PutManifest installs m (a private clone is stored). A complete manifest is
// appended to the log; an incomplete one stays memory-only, and the key's
// record, if any, is dropped.
func (t *Tier) PutManifest(m *Manifest) error {
	cp := m.Clone()
	t.mu.Lock()
	defer t.mu.Unlock()
	e := t.install(cp.Key, cp)
	if !cp.Complete() {
		t.slab.writeManifest(e.hash, cp.Key, nil)
		return nil
	}
	return t.slab.writeManifest(e.hash, cp.Key, cp)
}

// AppendSegment records id as the next ingested segment of key's manifest,
// returning the updated manifest. It is a no-op if ord is not the next
// segment ordinal (concurrent ingests race benignly). The new manifest's
// segment list extends the old one's in place when its array has room, so
// an ingest copies each id a constant number of times, not once per later
// segment.
func (t *Tier) AppendSegment(key string, ord int, id SegID) (*Manifest, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	e, ok := t.manifests[key]
	if !ok {
		return nil, fmt.Errorf("largeobject: append segment: no manifest for %q", key)
	}
	if ord != len(e.m.Segments) {
		return e.m, nil
	}
	cp := *e.m
	cp.Segments = append(e.m.Segments, id)
	e.m = &cp
	if cp.Complete() {
		return e.m, t.slab.writeManifest(e.hash, key, e.m)
	}
	return e.m, nil
}

// RefreshManifest installs a renewal of key's manifest: header and expires,
// as the cache's one 304 rule (cache.Renew) made them, replace the stored
// ones. Segment ids and bodies are untouched. Returns the refreshed
// manifest, or false when key has no manifest.
func (t *Tier) RefreshManifest(key string, header httpmsg.Header, expires time.Time) (*Manifest, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	e, ok := t.manifests[key]
	if !ok {
		return nil, false
	}
	cp := *e.m
	cp.Header, cp.Expires = header, expires
	e.m = &cp
	if cp.Complete() {
		// Recording the renewed expiry is best-effort; if the record cannot
		// be appended the key's is dropped, and a crash costs one refetch.
		t.slab.writeManifest(e.hash, key, e.m)
	}
	return e.m, true
}

// DeleteManifest drops key's manifest from the table and tombstones its
// record. Its segments age out of the slab with the log segments that hold
// them.
func (t *Tier) DeleteManifest(key string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.drop(key)
}

// drop removes key's entry and tombstones its record, under t.mu.
func (t *Tier) drop(key string) {
	hash := manifestHash(key)
	if e, ok := t.manifests[key]; ok {
		hash = e.hash
		delete(t.manifests, key)
	}
	t.slab.writeManifest(hash, key, nil)
}

// PutSegment stores one segment body in the slab.
func (t *Tier) PutSegment(id SegID, data []byte) error { return t.slab.Put(id, data) }

// GetSegment returns one segment body from the slab, as a copy the caller
// owns (safe to share between goroutines and to hand to the transport).
func (t *Tier) GetSegment(id SegID) ([]byte, bool) { return t.slab.Get(id) }

// Resident returns how many of m's segments are in the slab.
func (t *Tier) Resident(m *Manifest) int { return t.slab.Resident(m) }

// IngestBody is Ingest with a net/http header.
func (t *Tier) IngestBody(key string, status int, header http.Header, expires time.Time, body []byte) (*Manifest, error) {
	return t.Ingest(key, status, httpmsg.FromHTTPHeader(header), expires, body)
}

// Ingest chunks a complete body into the tier, in place, and returns the
// complete manifest, fresh until expires.
func (t *Tier) Ingest(key string, status int, header httpmsg.Header, expires time.Time, body []byte) (*Manifest, error) {
	in, err := t.begin(key, status, header, int64(len(body)), expires)
	if err != nil {
		return nil, err
	}
	return t.chunk(in, bytes.NewBuffer(body))
}

// IngestStream chunks a body of length bytes still arriving: it returns the
// installed manifest at once, before a byte is read, and chunks body in its
// own goroutine, closing body and calling done with the result at the end.
// A stream of the returned manifest serves segments as they are appended.
func (t *Tier) IngestStream(key string, status int, header httpmsg.Header, length int64, expires time.Time, body io.ReadCloser, done func(error)) (*Manifest, error) {
	in, err := t.begin(key, status, header, length, expires)
	if err != nil {
		body.Close()
		return nil, err
	}
	go func() {
		defer body.Close()
		_, err := t.chunk(in, body)
		done(err)
	}()
	return in.m, nil
}

// begin installs the manifest of a length-byte object, with no segment yet
// (memory-only until it completes), and registers its ingest as key's in
// flight. It replaces an ingest of key still in flight: readers already
// waiting on that one wait for its end, later readers wait on this one.
func (t *Tier) begin(key string, status int, header httpmsg.Header, length int64, expires time.Time) (*ingest, error) {
	m := &Manifest{Key: key, Status: status, Header: header, TotalLen: length, SegSize: t.segSize, Expires: expires}
	if err := t.PutManifest(m); err != nil {
		return nil, err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.ingests == nil {
		return nil, errClosed
	}
	in := &ingest{m: m, cond: sync.NewCond(&t.mu)}
	t.ingests[key] = in
	return in, nil
}

// chunk is the tier's one chunker: it cuts body at the segment size, hashes
// and stores each segment and appends its id to the manifest, waking the
// readers waiting on the ingest at each step. A body that can hand out its
// next bytes in place (a bytes.Buffer over a whole body) is not copied;
// any other is read into one segment buffer. At the end the ingest leaves
// the tier's table of ingests and wakes its readers with its result; a
// short or failed body, or a segment the slab refuses, drops the manifest,
// so the next request fetches the object afresh.
func (t *Tier) chunk(in *ingest, body io.Reader) (*Manifest, error) {
	m, key := in.m, in.m.Key
	inPlace, _ := body.(interface{ Next(n int) []byte })
	var buf []byte
	if inPlace == nil {
		buf = make([]byte, t.segSize)
	}
	var err error
	for ord := 0; ord < in.m.NumSegments() && err == nil; ord++ {
		from, to := in.m.SegmentSpan(ord)
		var seg []byte
		if inPlace != nil {
			seg = inPlace.Next(int(to - from)) // as long as the manifest says
		} else {
			seg = buf[:to-from]
			_, err = io.ReadFull(body, seg)
		}
		if err != nil {
			err = fmt.Errorf("largeobject: ingest %q segment %d: %w", key, ord, err)
			break
		}
		id := HashSegment(seg)
		if err = t.slab.Put(id, seg); err == nil {
			m, err = t.AppendSegment(key, ord, id)
		}
		in.cond.Broadcast()
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.ingests[key] == in {
		delete(t.ingests, key)
		if err != nil {
			t.drop(key)
		}
	}
	if in.err == nil { // else Close has ended it
		in.err = err
	}
	in.cond.Broadcast()
	if err != nil {
		return nil, err
	}
	return m, nil
}

// await returns the freshest manifest of key (m when the table has none)
// once it records segment ord's id or no ingest of key is in flight. A read
// that waits is counted, and one whose ingest ends in an error returns it.
func (t *Tier) await(m *Manifest, ord int) (*Manifest, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for waited := false; ; waited = true {
		cur, ok := t.manifest(t.manifests[m.Key])
		if !ok {
			cur = m
		}
		in := t.ingests[m.Key]
		if ord < len(cur.Segments) || in == nil {
			return cur, nil
		}
		if !waited {
			t.waits++
		}
		in.cond.Wait()
		if in.err != nil {
			return nil, in.err
		}
	}
}

// Stats is a point-in-time snapshot of tier telemetry. IngestWaits counts
// segment reads that waited on an ingest in flight.
type Stats struct {
	Manifests   int
	IngestWaits uint64
	Slab        SlabStats
}

// Stats returns current telemetry.
func (t *Tier) Stats() Stats {
	t.mu.Lock()
	st := Stats{Manifests: len(t.manifests), IngestWaits: t.waits}
	t.mu.Unlock()
	st.Slab = t.slab.Stats()
	return st
}

// ---------------------------------------------------------------------------
// Lazy segment stream
// ---------------------------------------------------------------------------

// Fetcher resolves a segment the slab does not hold: given the manifest and
// a segment ordinal, it returns the segment's bytes (typically after
// fetching them from a peer or the origin and storing them in the slab).
type Fetcher func(m *Manifest, ord int) ([]byte, error)

// NewStream returns a BodyStream over m's object. Reads resolve segments
// lazily from the *current* manifest, so segments ingested after the stream
// was created are visible: a segment an ingest in flight has not appended
// yet is waited for, then read from the slab; fetch is asked only for one
// the slab does not hold. A nil fetch is the tier's own (SetFetcher), and
// the stream of the table's manifest for m's key with it is made once and
// shared by every request for that manifest; without one, only resident
// segments are served and a gap is an error.
func (t *Tier) NewStream(m *Manifest, fetch Fetcher) httpmsg.BodyStream {
	if fetch != nil {
		return &segStream{t: t, m: m, fetch: fetch}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	e, ok := t.manifests[m.Key]
	if !ok || e.m != m {
		return &segStream{t: t, m: m, fetch: t.fetch}
	}
	if e.stream == nil || e.stream.m != m {
		e.stream = &segStream{t: t, m: m, fetch: t.fetch}
	}
	return e.stream
}

// segStream is immutable once made, so one serves any number of readers at
// once.
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

// check refuses a range outside the object.
func (ss *segStream) check(from, to int64) error {
	if from < 0 || to > ss.m.TotalLen || from > to {
		return fmt.Errorf("largeobject: range [%d,%d) outside %d-byte object", from, to, ss.m.TotalLen)
	}
	return nil
}

func (ss *segStream) Range(from, to int64) (io.ReadCloser, error) {
	if err := ss.check(from, to); err != nil {
		return nil, err
	}
	return &segReader{ss: ss, pos: from, end: to}, nil
}

// WriteRange implements httpmsg.RangeWriter: it writes [from, to) to w as
// the WriteTo of Range's reader does, through a reader that lives for the
// call alone, so a range served this way allocates no reader.
func (ss *segStream) WriteRange(w io.Writer, from, to int64) (int64, error) {
	if err := ss.check(from, to); err != nil {
		return 0, err
	}
	r := segReader{ss: ss, pos: from, end: to}
	defer r.Close()
	return r.WriteTo(w)
}

// segReader reads [pos, end), pulling one segment at a time. It is the only
// holder of slab views: at most one at a time, whose buffer goes back to the
// slab when the reader moves to the next segment, reaches end and on Close.
// A reader is used by one goroutine.
type segReader struct {
	ss       *segStream
	pos, end int64
	cur      []byte // bytes of the segment containing pos, full segment
	buf      []byte // the slab view's buffer cur aliases; nil when cur is an owned slice
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
		data, buf, err := r.load(ord)
		if err != nil {
			return nil, err
		}
		r.cur, r.buf, r.curOrd = data, buf, ord
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
	if r.buf != nil {
		r.ss.t.slab.release(r.buf)
		r.buf = nil
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

// load returns segment ord's bytes: a slab view and its buffer once the
// manifest records the segment's id (waiting for an ingest in flight to
// append it), else fetch's, an owned slice with no buffer.
func (r *segReader) load(ord int) (data, buf []byte, err error) {
	m, err := r.ss.t.await(r.ss.m, ord)
	if err != nil {
		return nil, nil, fmt.Errorf("largeobject: segment %d of %q: %w", ord, r.ss.m.Key, err)
	}
	if ord < len(m.Segments) {
		if data, buf, ok := r.ss.t.slab.view(&m.Segments[ord]); ok {
			return data, buf, nil
		}
	}
	if r.ss.fetch == nil {
		return nil, nil, fmt.Errorf("largeobject: segment %d of %q not resident", ord, m.Key)
	}
	data, err = r.ss.fetch(m, ord)
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
