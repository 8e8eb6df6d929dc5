// Package wire provides the append-style binary encoding primitives shared
// by the transport framing and the subsystem RPC codecs (replication,
// offload, cooperative cache, leases, deploys, large objects):
// uvarint-length-prefixed byte strings and uvarint integers, written by
// appending to a caller-supplied buffer so encoders compose without
// intermediate allocations, and read by a bounds-checked Reader that never
// panics on malformed input.
//
// Self-describing payloads produced by these codecs start with the Magic
// byte; Payload is the one place that checks it, so every Decode* function
// in the package's users opens its input the same way.
package wire

import (
	"encoding/binary"
	"errors"
	"time"
)

// Magic is the first byte of every self-describing payload. It is part of
// the stored formats (WAL records, manifests, disk-cache entries), so it
// stays even though it is the only encoding there is.
const Magic byte = 0x00

// ErrMalformed reports a truncated or corrupt binary payload.
var ErrMalformed = errors.New("wire: malformed payload")

// AppendUvarint appends v in uvarint encoding.
func AppendUvarint(buf []byte, v uint64) []byte {
	return binary.AppendUvarint(buf, v)
}

// AppendVarint appends v in zigzag varint encoding (for signed values like
// unix-nano timestamps).
func AppendVarint(buf []byte, v int64) []byte {
	return binary.AppendVarint(buf, v)
}

// AppendString appends s as a uvarint-length-prefixed byte string.
func AppendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// AppendBytes appends b as a uvarint-length-prefixed byte string.
func AppendBytes(buf []byte, b []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(b)))
	return append(buf, b...)
}

// AppendRaw appends b verbatim with no length prefix, for fixed-width fields
// (content-hash segment ids, checksums) whose length both sides know.
func AppendRaw(buf []byte, b []byte) []byte {
	return append(buf, b...)
}

// AppendBool appends a bool as one byte.
func AppendBool(buf []byte, v bool) []byte {
	if v {
		return append(buf, 1)
	}
	return append(buf, 0)
}

// AppendTime appends t as a presence flag plus unix nanoseconds. The flag
// keeps a zero time round-tripping as a zero time instead of a bogus
// wall-clock value.
func AppendTime(buf []byte, t time.Time) []byte {
	if t.IsZero() {
		return append(buf, 0)
	}
	buf = append(buf, 1)
	return binary.AppendVarint(buf, t.UnixNano())
}

// Reader is a bounds-checked cursor over one binary payload. Every method
// returns ErrMalformed instead of panicking when the payload is truncated,
// so decoders are safe on arbitrary network bytes.
type Reader struct {
	Buf []byte
	Off int
}

// NewReader returns a reader over buf.
func NewReader(buf []byte) *Reader { return &Reader{Buf: buf} }

// Payload opens a self-describing payload: it returns a reader positioned
// after the Magic byte, or ErrMalformed when p is empty or does not start
// with it.
func Payload(p []byte) (Reader, error) {
	if len(p) == 0 || p[0] != Magic {
		return Reader{}, ErrMalformed
	}
	return Reader{Buf: p, Off: 1}, nil
}

// Len returns the number of unread bytes.
func (r *Reader) Len() int { return len(r.Buf) - r.Off }

// Byte reads one byte.
func (r *Reader) Byte() (byte, error) {
	if r.Off >= len(r.Buf) {
		return 0, ErrMalformed
	}
	b := r.Buf[r.Off]
	r.Off++
	return b, nil
}

// Bool reads one byte as a bool.
func (r *Reader) Bool() (bool, error) {
	b, err := r.Byte()
	return b != 0, err
}

// Uvarint reads one uvarint.
func (r *Reader) Uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.Buf[r.Off:])
	if n <= 0 {
		return 0, ErrMalformed
	}
	r.Off += n
	return v, nil
}

// Varint reads one zigzag varint.
func (r *Reader) Varint() (int64, error) {
	v, n := binary.Varint(r.Buf[r.Off:])
	if n <= 0 {
		return 0, ErrMalformed
	}
	r.Off += n
	return v, nil
}

// Bytes reads one length-prefixed byte string. The returned slice aliases
// the payload buffer — callers that retain it past the buffer's lifetime
// must copy (see CopyBytes).
func (r *Reader) Bytes() ([]byte, error) {
	n, err := r.Uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(r.Len()) {
		return nil, ErrMalformed
	}
	b := r.Buf[r.Off : r.Off+int(n)]
	r.Off += int(n)
	return b, nil
}

// Raw reads n bytes with no length prefix (the fixed-width counterpart of
// Bytes). The returned slice aliases the payload buffer.
func (r *Reader) Raw(n int) ([]byte, error) {
	if n < 0 || n > r.Len() {
		return nil, ErrMalformed
	}
	b := r.Buf[r.Off : r.Off+n]
	r.Off += n
	return b, nil
}

// CopyBytes reads one length-prefixed byte string into freshly allocated
// memory (nil for an empty string), safe to retain after the payload buffer
// is recycled.
func (r *Reader) CopyBytes() ([]byte, error) {
	b, err := r.Bytes()
	if err != nil || len(b) == 0 {
		return nil, err
	}
	out := make([]byte, len(b))
	copy(out, b)
	return out, nil
}

// String reads one length-prefixed byte string as a string (always a copy).
func (r *Reader) String() (string, error) {
	b, err := r.Bytes()
	return string(b), err
}

// Time reads one AppendTime-encoded timestamp.
func (r *Reader) Time() (time.Time, error) {
	present, err := r.Bool()
	if err != nil || !present {
		return time.Time{}, err
	}
	nano, err := r.Varint()
	if err != nil {
		return time.Time{}, err
	}
	return time.Unix(0, nano), nil
}
