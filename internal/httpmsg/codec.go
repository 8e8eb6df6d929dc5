package httpmsg

import (
	"fmt"
	"net/http"
	"net/url"
	"slices"

	"nakika/internal/wire"
)

// Binary wire codecs for the two message types that cross the transport:
// responses (cache.get and off.exec replies, disk-cache entries) and
// requests (off.exec bodies). Encoders are append-style so callers can
// compose them into pooled buffers.

// AppendHeader appends h:
//
//	uvarint(nkeys) { str(key) uvarint(nvals) str(val)... }...
//
// Keys are written in sorted order so the encoding is deterministic (equal
// headers encode to equal bytes — fuzz and fingerprint friendly).
func AppendHeader(buf []byte, h http.Header) []byte {
	buf = wire.AppendUvarint(buf, uint64(len(h)))
	if len(h) == 0 {
		return buf
	}
	var small [16]string // the keys of a usual header sort on the stack
	keys := small[:0]
	for k := range h {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		buf = wire.AppendString(buf, k)
		vs := h[k]
		buf = wire.AppendUvarint(buf, uint64(len(vs)))
		for _, v := range vs {
			buf = wire.AppendString(buf, v)
		}
	}
	return buf
}

// ReadHeader reads one AppendHeader-encoded header. A header with zero keys
// decodes as nil. The header's bytes are copied out of the reader's buffer
// as one string, and its keys and values are substrings of it
// (DecodeHeader).
func ReadHeader(r *wire.Reader) (http.Header, error) {
	from := r.Off
	nkeys, err := skipHeader(r)
	if err != nil || nkeys == 0 {
		return nil, err
	}
	return DecodeHeader(string(r.Buf[from:r.Off])), nil
}

// AppendResponse appends resp's binary encoding (no magic byte):
//
//	uvarint(status) header bytes(body) bool(generated) bool(fromCache)
//	str(via)
func AppendResponse(buf []byte, resp *Response) []byte {
	buf = wire.AppendUvarint(buf, uint64(resp.Status))
	buf = AppendHeader(buf, resp.Header)
	return appendResponseTail(buf, resp.Body, resp.Generated, resp.FromCache, resp.Via)
}

// appendResponseTail appends what follows the header in a response's
// encoding.
func appendResponseTail(buf, body []byte, generated, fromCache bool, via string) []byte {
	buf = wire.AppendBytes(buf, body)
	buf = wire.AppendBool(buf, generated)
	buf = wire.AppendBool(buf, fromCache)
	return wire.AppendString(buf, via)
}

// ReadResponse reads one AppendResponse-encoded response. The body is
// copied out of the reader's buffer, so the decoded response outlives a
// pooled payload.
func ReadResponse(r *wire.Reader) (*Response, error) {
	status, err := r.Uvarint()
	if err != nil {
		return nil, err
	}
	resp := &Response{Status: int(status)}
	if resp.Header, err = ReadHeader(r); err != nil {
		return nil, err
	}
	if resp.Body, err = r.CopyBytes(); err != nil {
		return nil, err
	}
	if err := readResponseFlags(r, &resp.Generated, &resp.FromCache, &resp.Via); err != nil {
		return nil, err
	}
	return resp, nil
}

// readResponseFlags reads what follows the body in a response's encoding.
func readResponseFlags(r *wire.Reader, generated, fromCache *bool, via *string) (err error) {
	if *generated, err = r.Bool(); err != nil {
		return err
	}
	if *fromCache, err = r.Bool(); err != nil {
		return err
	}
	*via, err = r.String()
	return err
}

// Stored is a response in the form a cache keeps it, which is the form the
// codec writes: the header as AppendHeader's bytes in one immutable string,
// the body, and the scalar fields. It holds no header map and no string per
// field, so an entry costs little beyond its bytes, and the disk tier's
// record of it is AppendStored's: byte for byte what AppendResponse writes
// for the response it was taken from. Once made, a Stored is not written:
// each hit decodes it into a response of its own (Response).
type Stored struct {
	Status    int
	Header    string // AppendHeader's bytes
	Body      []byte
	Via       string
	Generated bool
	FromCache bool
}

// Response decodes s into a fresh response: a new header map whose keys and
// values are substrings of s.Header, with value slices of its own, so a
// write into one response's header never shows in the next. The body is
// s.Body, a copy nothing else holds: the response owns it, or, when it is
// borrowed (a request's reply buffer, Request.ReplyBuffer), reads it until
// Materialize copies it, as a Clone does.
func (s *Stored) Response(borrowed bool) *Response {
	return &Response{
		Status:    s.Status,
		Header:    DecodeHeader(s.Header),
		Body:      s.Body,
		Generated: s.Generated,
		FromCache: s.FromCache,
		Via:       s.Via,
		shared:    borrowed,
	}
}

// AppendStored appends s's binary encoding, which is AppendResponse's for
// the response s was taken from. The header is appended as it is stored,
// without sorting or encoding a map.
func AppendStored(buf []byte, s *Stored) []byte {
	buf = wire.AppendUvarint(buf, uint64(s.Status))
	buf = append(buf, s.Header...)
	return appendResponseTail(buf, s.Body, s.Generated, s.FromCache, s.Via)
}

// EncodeStored renders s as the self-describing payload EncodeResponse
// writes for the response s was taken from.
func EncodeStored(s *Stored) []byte {
	buf := make([]byte, 0, 40+len(s.Header)+len(s.Body)+len(s.Via))
	return AppendStored(append(buf, wire.Magic), s)
}

// DecodeStored parses an EncodeResponse payload into its stored form: the
// header is checked and copied out as one string, and the body aliases
// payload, so a caller that keeps it past payload's reuse copies it.
func DecodeStored(payload []byte) (Stored, error) {
	r, err := wire.Payload(payload)
	if err != nil {
		return Stored{}, err
	}
	status, err := r.Uvarint()
	if err != nil {
		return Stored{}, err
	}
	s := Stored{Status: int(status)}
	from := r.Off
	if _, err := skipHeader(&r); err != nil {
		return Stored{}, err
	}
	s.Header = string(r.Buf[from:r.Off])
	if s.Body, err = r.Bytes(); err != nil {
		return Stored{}, err
	}
	if err := readResponseFlags(&r, &s.Generated, &s.FromCache, &s.Via); err != nil {
		return Stored{}, err
	}
	return s, r.End()
}

// skipHeader reads past one AppendHeader-encoded header, checking that it is
// well formed, and returns its key count.
func skipHeader(r *wire.Reader) (uint64, error) {
	nkeys, err := r.Uvarint()
	if err != nil {
		return 0, err
	}
	if nkeys > uint64(r.Len()) { // cheap sanity bound before reading on
		return 0, wire.ErrMalformed
	}
	for i := uint64(0); i < nkeys; i++ {
		if _, err := r.Bytes(); err != nil {
			return 0, err
		}
		nvals, err := r.Uvarint()
		if err != nil {
			return 0, err
		}
		if nvals > uint64(r.Len()) {
			return 0, wire.ErrMalformed
		}
		for j := uint64(0); j < nvals; j++ {
			if _, err := r.Bytes(); err != nil {
				return 0, err
			}
		}
	}
	return nkeys, nil
}

// EncodeHeader returns AppendHeader's bytes for h as one string: the form a
// cache keeps a header in.
func EncodeHeader(h http.Header) string {
	var small [512]byte // a usual response header encodes on the stack
	return string(AppendHeader(small[:0], h))
}

// DecodeHeader decodes an EncodeHeader string into a new header map in two
// allocations beside the map's own: none per key or value, which are
// substrings of s, and one backing array all value slices are carved from,
// each at full length so an append to one copies out. Bytes that are not
// AppendHeader's decode no further than they are well formed.
func DecodeHeader(s string) http.Header {
	nkeys, nvals := headerCounts(s)
	h := make(http.Header, nkeys)
	flat := make([]string, 0, nvals)
	d := headerDecoder{s: s}
	for i := d.uvarint(); i > 0 && !d.bad; i-- {
		k := d.str()
		lo := len(flat)
		for n := d.uvarint(); n > 0 && !d.bad; n-- {
			flat = append(flat, d.str())
		}
		if !d.bad {
			h[k] = flat[lo:len(flat):len(flat)]
		}
	}
	return h
}

// headerCounts returns how many keys and values the well-formed prefix of
// an EncodeHeader string holds.
func headerCounts(s string) (keys, vals int) {
	d := headerDecoder{s: s}
	nkeys := d.uvarint()
	for ; keys < nkeys && !d.bad; keys++ {
		d.str()
		n := d.uvarint()
		for j := 0; j < n && !d.bad; j++ {
			d.str()
			if !d.bad {
				vals++
			}
		}
	}
	return keys, vals
}

// headerDecoder is a cursor over an EncodeHeader string. A read past the end
// or a length that does not fit sets bad and returns zero.
type headerDecoder struct {
	s   string
	off int
	bad bool
}

func (d *headerDecoder) uvarint() int {
	var v uint64
	for shift := 0; shift < 64 && d.off < len(d.s); shift += 7 {
		b := d.s[d.off]
		d.off++
		v |= uint64(b&0x7f) << shift
		if b < 0x80 {
			if v > uint64(len(d.s)-d.off) {
				break
			}
			return int(v)
		}
	}
	d.bad = true
	return 0
}

func (d *headerDecoder) str() string {
	n := d.uvarint()
	v := d.s[d.off : d.off+n]
	d.off += n
	return v
}

// EncodeResponse renders resp as a self-describing payload (magic byte
// first) suitable for a transport Message body. A streamed body is
// materialized first — the wire format carries complete instances; if the
// stream cannot be read the peer gets a bodyless 502 rather than a truncated
// instance.
func EncodeResponse(resp *Response) []byte {
	if resp.Stream != nil {
		if err := resp.Materialize(); err != nil {
			resp = NewTextResponse(http.StatusBadGateway, "upstream stream failed\n")
		}
	}
	buf := make([]byte, 0, 64+len(resp.Body)+8*len(resp.Header))
	buf = append(buf, wire.Magic)
	return AppendResponse(buf, resp)
}

// DecodeResponse parses an EncodeResponse payload.
func DecodeResponse(payload []byte) (*Response, error) {
	r, err := wire.Payload(payload)
	if err != nil {
		return nil, err
	}
	resp, err := ReadResponse(&r)
	if err != nil {
		return nil, err
	}
	return resp, r.End()
}

// AppendRequest appends req's binary encoding (no magic byte):
//
//	str(method) str(url) header bytes(body) str(clientIP) bool(redirected)
//
// The URL travels in its string form; script-private state (termination) is
// deliberately not carried — an offloaded request runs the remote pipeline
// from scratch.
func AppendRequest(buf []byte, req *Request) []byte {
	buf = wire.AppendString(buf, req.Method)
	var u string
	if req.URL != nil {
		u = req.URL.String()
	}
	buf = wire.AppendString(buf, u)
	buf = AppendHeader(buf, req.Header)
	buf = wire.AppendBytes(buf, req.Body)
	buf = wire.AppendString(buf, req.ClientIP)
	return wire.AppendBool(buf, req.Redirected)
}

// ReadRequest reads one AppendRequest-encoded request.
func ReadRequest(r *wire.Reader) (*Request, error) {
	method, err := r.String()
	if err != nil {
		return nil, err
	}
	rawURL, err := r.String()
	if err != nil {
		return nil, err
	}
	req := &Request{Method: method}
	if rawURL != "" {
		if req.URL, err = url.Parse(rawURL); err != nil {
			return nil, fmt.Errorf("httpmsg: decode request url: %w", err)
		}
	}
	if req.Header, err = ReadHeader(r); err != nil {
		return nil, err
	}
	if req.Body, err = r.CopyBytes(); err != nil {
		return nil, err
	}
	if req.ClientIP, err = r.String(); err != nil {
		return nil, err
	}
	if req.Redirected, err = r.Bool(); err != nil {
		return nil, err
	}
	return req, nil
}

// EncodeRequest renders req as a self-describing payload (magic byte
// first).
func EncodeRequest(req *Request) []byte {
	buf := make([]byte, 0, 96+len(req.Body)+8*len(req.Header))
	buf = append(buf, wire.Magic)
	return AppendRequest(buf, req)
}

// DecodeRequest parses an EncodeRequest payload.
func DecodeRequest(payload []byte) (*Request, error) {
	r, err := wire.Payload(payload)
	if err != nil {
		return nil, err
	}
	req, err := ReadRequest(&r)
	if err != nil {
		return nil, err
	}
	return req, r.End()
}
