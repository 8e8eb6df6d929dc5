package lease

import (
	"nakika/internal/wire"
)

// Lease records cross two boundaries: they are stored as the string value
// of a replicated hard-state key (Encode/Decode), and they travel inside
// lease RPC payloads (AppendRecord/ReadRecord, composed by internal/core's
// codecs). Both use the wire package's append-style binary primitives; the
// stored form leads with wire.Magic so no plausible script-written value
// collides with it (the lease key namespace already prevents collisions,
// the magic byte makes decoding fail loudly rather than quietly if one
// ever slips through).

// AppendRecord appends rec's binary encoding (no magic byte):
//
//	str(holder) uvarint(token) varint(expires) bool(released)
func AppendRecord(buf []byte, rec Record) []byte {
	buf = wire.AppendString(buf, rec.Holder)
	buf = wire.AppendUvarint(buf, rec.Token)
	buf = wire.AppendVarint(buf, rec.Expires)
	return wire.AppendBool(buf, rec.Released)
}

// ReadRecord reads one AppendRecord-encoded record.
func ReadRecord(r *wire.Reader) (rec Record, err error) {
	if rec.Holder, err = r.String(); err != nil {
		return
	}
	if rec.Token, err = r.Uvarint(); err != nil {
		return
	}
	if rec.Expires, err = r.Varint(); err != nil {
		return
	}
	rec.Released, err = r.Bool()
	return
}

// Encode renders rec as the string stored in the hard-state layer.
func Encode(rec Record) string {
	buf := make([]byte, 0, 24+len(rec.Holder))
	buf = append(buf, wire.Magic)
	return string(AppendRecord(buf, rec))
}

// Decode parses an Encode-produced value. ok is false for anything else —
// including trailing garbage, so a truncated or corrupted stored value can
// never be half-read as a valid lease.
func Decode(s string) (Record, bool) {
	r, err := wire.Payload([]byte(s))
	if err != nil {
		return Record{}, false
	}
	rec, err := ReadRecord(&r)
	if err != nil || r.Len() != 0 {
		return Record{}, false
	}
	return rec, true
}
