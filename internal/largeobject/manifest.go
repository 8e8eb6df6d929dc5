// Package largeobject is the chunked large-object tier: responses above a
// threshold are split into fixed-size content-addressed segments (SHA-256
// ids) stored as records of a store.SegLog on a store.FS, with a per-object
// manifest (segment list + validators + total length) as the cache entry.
// The design follows NDN-DPDK's disk-backed content store, which serves
// every size from one structure: a segment is a large record in the log the
// disk cache tier writes its entries to — CRC-framed, replayed at open,
// reclaimed oldest first, soft state (no fsync; a torn record fails its
// checksum and ends its segment's scan) — and a complete manifest is a small
// record of the same log, superseded when it is refreshed and tombstoned
// when it is dropped. The tier's directory holds that log and nothing else.
//
// The tier is node-local soft state. Peers find a copy through the overlay's
// cooperative index and fetch its manifest (AppendManifest) and segments
// from the holder.
package largeobject

import (
	"crypto/sha256"
	"fmt"
	"net/http"
	"time"

	"nakika/internal/httpmsg"
	"nakika/internal/wire"
)

// SegIDLen is the byte length of a segment id (SHA-256).
const SegIDLen = 32

// SegID is the content address of one segment: the SHA-256 of its bytes.
type SegID [SegIDLen]byte

// HashSegment returns the content address of data.
func HashSegment(data []byte) SegID { return sha256.Sum256(data) }

// String returns the id's short hex form for logs.
func (id SegID) String() string { return fmt.Sprintf("%x", id[:8]) }

// Manifest describes one chunked object: the ordered segment list, the
// validators and headers of the 200 it was chunked from, and the total
// instance length. A manifest whose Segments list is still shorter than
// NumSegments is a partially ingested object (Complete reports this);
// readers can serve the ingested prefix and fetch the rest by byte range.
type Manifest struct {
	// Key is the cache key of the object ("GET http://...").
	Key string
	// Status is the status of the chunked response (always 200 today).
	Status int
	// Header carries the origin response headers, including validators
	// (ETag, Last-Modified) used for revalidation.
	Header http.Header
	// TotalLen is the full instance length in bytes.
	TotalLen int64
	// SegSize is the segment size; every segment except the last is exactly
	// this long.
	SegSize int64
	// Segments lists the content addresses of the ingested prefix, in
	// order. len(Segments) == NumSegments() once ingest completes.
	Segments []SegID
	// Fetched is when the object was obtained from the origin.
	Fetched time.Time
}

// NumSegments returns the number of segments the complete object has.
func (m *Manifest) NumSegments() int {
	if m.SegSize <= 0 || m.TotalLen <= 0 {
		return 0
	}
	return int((m.TotalLen + m.SegSize - 1) / m.SegSize)
}

// Complete reports whether every segment id is known.
func (m *Manifest) Complete() bool { return len(m.Segments) == m.NumSegments() }

// SegmentSpan returns the byte range [from, to) that segment i covers.
func (m *Manifest) SegmentSpan(i int) (from, to int64) {
	from = int64(i) * m.SegSize
	to = from + m.SegSize
	if to > m.TotalLen {
		to = m.TotalLen
	}
	return from, to
}

// Clone returns a deep copy of the manifest.
func (m *Manifest) Clone() *Manifest {
	cp := *m
	cp.Header = cloneHeader(m.Header)
	cp.Segments = append([]SegID(nil), m.Segments...)
	return &cp
}

func cloneHeader(h http.Header) http.Header {
	if h == nil {
		return nil
	}
	out := make(http.Header, len(h))
	for k, vs := range h {
		out[k] = append([]string(nil), vs...)
	}
	return out
}

// manifestVersion is the first byte of every encoded manifest, so the format
// can evolve without a flag day.
const manifestVersion = 1

// maxManifestSegments bounds decoded segment lists: with the default 1 MiB
// segments this is an 8 TiB object, far past anything the tier serves, and
// it keeps a malformed length prefix from allocating unbounded memory.
const maxManifestSegments = 1 << 23

// AppendManifest appends m's binary encoding (no magic byte):
//
//	byte(version) str(key) uvarint(status) header varint(totalLen)
//	uvarint(segSize) uvarint(nsegs) raw32(segid)... time(fetched)
func AppendManifest(buf []byte, m *Manifest) []byte {
	buf = append(buf, manifestVersion)
	buf = wire.AppendString(buf, m.Key)
	buf = wire.AppendUvarint(buf, uint64(m.Status))
	buf = httpmsg.AppendHeader(buf, m.Header)
	buf = wire.AppendVarint(buf, m.TotalLen)
	buf = wire.AppendUvarint(buf, uint64(m.SegSize))
	buf = wire.AppendUvarint(buf, uint64(len(m.Segments)))
	for i := range m.Segments {
		buf = wire.AppendRaw(buf, m.Segments[i][:])
	}
	return wire.AppendTime(buf, m.Fetched)
}

// ReadManifest reads one AppendManifest-encoded manifest and validates its
// internal consistency (a decoded manifest always has sane geometry).
func ReadManifest(r *wire.Reader) (*Manifest, error) {
	ver, err := r.Byte()
	if err != nil {
		return nil, err
	}
	if ver != manifestVersion {
		return nil, fmt.Errorf("largeobject: manifest version %d: %w", ver, wire.ErrMalformed)
	}
	m := &Manifest{}
	if m.Key, err = r.String(); err != nil {
		return nil, err
	}
	status, err := r.Uvarint()
	if err != nil {
		return nil, err
	}
	m.Status = int(status)
	if m.Header, err = httpmsg.ReadHeader(r); err != nil {
		return nil, err
	}
	if m.TotalLen, err = r.Varint(); err != nil {
		return nil, err
	}
	segSize, err := r.Uvarint()
	if err != nil {
		return nil, err
	}
	m.SegSize = int64(segSize)
	nsegs, err := r.Uvarint()
	if err != nil {
		return nil, err
	}
	if nsegs > maxManifestSegments || int(nsegs)*SegIDLen > r.Len() {
		return nil, wire.ErrMalformed
	}
	m.Segments = make([]SegID, nsegs)
	for i := range m.Segments {
		raw, err := r.Raw(SegIDLen)
		if err != nil {
			return nil, err
		}
		copy(m.Segments[i][:], raw)
	}
	if m.Fetched, err = r.Time(); err != nil {
		return nil, err
	}
	if m.Key == "" || m.Status == 0 || m.TotalLen < 0 || m.SegSize <= 0 {
		return nil, wire.ErrMalformed
	}
	if len(m.Segments) > m.NumSegments() {
		return nil, wire.ErrMalformed
	}
	return m, nil
}
