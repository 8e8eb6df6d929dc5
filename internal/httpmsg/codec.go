package httpmsg

import (
	"bytes"
	"fmt"
	"net/http"
	"net/url"
	"strconv"

	"nakika/internal/wire"
)

// Binary wire codecs for the two message types that cross the transport:
// responses (cache.get and off.exec replies, disk-cache entries) and
// requests (off.exec bodies). Encoders are append-style so callers can
// compose them into pooled buffers.

// AppendHeader appends h's bytes:
//
//	uvarint(nkeys) { str(key) uvarint(nvals) str(val)... }...
//
// Keys are in sorted order, so the encoding is deterministic (equal headers
// encode to equal bytes — fuzz and fingerprint friendly).
func AppendHeader(buf []byte, h Header) []byte {
	if h.enc == "" {
		return append(buf, 0)
	}
	return append(buf, h.enc...)
}

// Stored is a response in the form a cache keeps it, which is the form the
// codec writes: the header (one immutable string), the body, and the scalar
// fields. It holds no string per field, so an entry costs little beyond its
// bytes, and the disk tier's record of it is AppendStored's: byte for byte
// what EncodeResponse writes for the response it was taken from. Once made,
// a Stored is not written: each hit makes a response of its own from it
// (Response).
type Stored struct {
	Status    int
	Header    Header
	Body      []byte
	Via       string
	Generated bool
	FromCache bool
}

// Response returns s as a response in reply to req, with s's header, which
// a write to the response's replaces, so it never shows in the next. The
// response is the one req's Reuse lends (see Reuse), or a fresh one when req
// is nil or has none. The body is s.Body, a copy nothing else holds: the
// response owns it, or, when it is borrowed (a request's reply buffer,
// Request.ReplyBuffer), reads it until Materialize copies it, as a Clone
// does.
func (s *Stored) Response(req *Request, borrowed bool) *Response {
	resp := req.lentResponse()
	*resp = Response{
		Status:    s.Status,
		Header:    s.Header,
		Body:      s.Body,
		Generated: s.Generated,
		FromCache: s.FromCache,
		Via:       s.Via,
		shared:    borrowed,
	}
	return resp
}

// AppendStored appends s's binary encoding (no magic byte), the encoding of
// a response:
//
//	uvarint(status) header bytes(body) bool(generated) bool(fromCache)
//	str(via)
func AppendStored(buf []byte, s *Stored) []byte {
	buf = wire.AppendUvarint(buf, uint64(s.Status))
	buf = AppendHeader(buf, s.Header)
	buf = wire.AppendBytes(buf, s.Body)
	buf = wire.AppendBool(buf, s.Generated)
	buf = wire.AppendBool(buf, s.FromCache)
	return wire.AppendString(buf, s.Via)
}

// EncodeStored renders s as a self-describing payload (magic byte first),
// the body of cache.get and off.exec replies.
func EncodeStored(s *Stored) []byte {
	buf := make([]byte, 0, 40+len(s.Header.enc)+len(s.Body)+len(s.Via))
	return AppendStored(append(buf, wire.Magic), s)
}

// DecodeStored parses an EncodeStored payload: the header is checked and
// copied out as one string, and the body aliases payload, so a caller that
// keeps it past payload's reuse copies it.
func DecodeStored(payload []byte) (s Stored, err error) {
	r, err := wire.Payload(payload)
	if err != nil {
		return s, err
	}
	status, err := r.Uvarint()
	if err != nil {
		return s, err
	}
	s.Status = int(status)
	if s.Header, err = ReadHeader(&r); err != nil {
		return s, err
	}
	if s.Body, err = r.Bytes(); err != nil {
		return s, err
	}
	if s.Generated, err = r.Bool(); err != nil {
		return s, err
	}
	if s.FromCache, err = r.Bool(); err != nil {
		return s, err
	}
	if s.Via, err = r.String(); err != nil {
		return s, err
	}
	return s, r.End()
}

// ReadHeader reads one AppendHeader-encoded header, checking that it is well
// formed, its keys in strictly ascending order, and copies it out of the
// reader's buffer as one string. A header with zero keys reads as the empty
// header.
func ReadHeader(r *wire.Reader) (Header, error) {
	from := r.Off
	nkeys, err := r.Uvarint()
	if err != nil || nkeys == 0 {
		return Header{}, err
	}
	if nkeys > uint64(r.Len()) { // cheap sanity bound before reading on
		return Header{}, wire.ErrMalformed
	}
	var prev []byte
	for i := uint64(0); i < nkeys; i++ {
		key, err := r.Bytes()
		if err != nil {
			return Header{}, err
		}
		if i > 0 && bytes.Compare(prev, key) >= 0 {
			return Header{}, wire.ErrMalformed
		}
		prev = key
		nvals, err := r.Uvarint()
		if err != nil {
			return Header{}, err
		}
		if nvals > uint64(r.Len()) {
			return Header{}, wire.ErrMalformed
		}
		for j := uint64(0); j < nvals; j++ {
			if _, err := r.Bytes(); err != nil {
				return Header{}, err
			}
		}
	}
	return Header{enc: string(r.Buf[from:r.Off])}, nil
}

// EncodeResponse renders resp as EncodeStored renders its stored form,
// with a ranged response's range fields (Accept-Ranges, Content-Length,
// Content-Range) and resp's Stamp folded into the header. A streamed body
// is materialized first — the wire format carries complete instances; if
// the stream cannot be read the peer gets a bodyless 502 rather than a
// truncated instance.
func EncodeResponse(resp *Response) []byte {
	if resp.Stream != nil {
		if err := resp.Materialize(); err != nil {
			resp = NewTextResponse(http.StatusBadGateway, "upstream stream failed\n")
		}
	}
	s := resp.StoredForm()
	if resp.ranged {
		s.Header.Set("Accept-Ranges", "bytes")
		s.Header.Set("Content-Length", strconv.FormatInt(resp.BodyLen(), 10))
		s.Header.Set("Content-Range", string(resp.appendContentRange(nil)))
	}
	if resp.Stamp != nil {
		resp.Stamp.Each(s.Header.Set)
	}
	return EncodeStored(&s)
}

// DecodeResponse parses an EncodeResponse payload into a response with a
// body of its own.
func DecodeResponse(payload []byte) (*Response, error) {
	s, err := DecodeStored(payload)
	if err != nil {
		return nil, err
	}
	s.Body = bytes.Clone(s.Body)
	if len(s.Body) == 0 {
		s.Body = nil
	}
	return s.Response(nil, false), nil
}

// EncodeRequest renders req as a self-describing payload (magic byte
// first):
//
//	str(method) str(url) header bytes(body) str(clientIP) bool(redirected)
//
// The URL travels in its string form; script-private state (termination) is
// deliberately not carried — an offloaded request runs the remote pipeline
// from scratch.
func EncodeRequest(req *Request) []byte {
	var u string
	if req.URL != nil {
		u = req.URL.String()
	}
	buf := make([]byte, 0, 96+len(req.Body)+len(req.Header.enc))
	buf = wire.AppendString(append(buf, wire.Magic), req.Method)
	buf = wire.AppendString(buf, u)
	buf = AppendHeader(buf, req.Header)
	buf = wire.AppendBytes(buf, req.Body)
	buf = wire.AppendString(buf, req.ClientIP)
	return wire.AppendBool(buf, req.Redirected)
}

// DecodeRequest parses an EncodeRequest payload.
func DecodeRequest(payload []byte) (*Request, error) {
	r, err := wire.Payload(payload)
	if err != nil {
		return nil, err
	}
	req := &Request{}
	if req.Method, err = r.String(); err != nil {
		return nil, err
	}
	rawURL, err := r.String()
	if err != nil {
		return nil, err
	}
	if rawURL != "" {
		if req.URL, err = url.Parse(rawURL); err != nil {
			return nil, fmt.Errorf("httpmsg: decode request url: %w", err)
		}
	}
	if req.Header, err = ReadHeader(&r); err != nil {
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
	return req, r.End()
}
