package httpmsg

import (
	"fmt"
	"net/http"
	"net/url"
	"sort"

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
	keys := make([]string, 0, len(h))
	for k := range h {
		keys = append(keys, k)
	}
	sort.Strings(keys)
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
// decodes as nil.
func ReadHeader(r *wire.Reader) (http.Header, error) {
	nkeys, err := r.Uvarint()
	if err != nil {
		return nil, err
	}
	if nkeys == 0 {
		return nil, nil
	}
	if nkeys > uint64(r.Len()) { // cheap sanity bound before allocating
		return nil, wire.ErrMalformed
	}
	h := make(http.Header, nkeys)
	for i := uint64(0); i < nkeys; i++ {
		k, err := r.String()
		if err != nil {
			return nil, err
		}
		nvals, err := r.Uvarint()
		if err != nil {
			return nil, err
		}
		if nvals > uint64(r.Len()) {
			return nil, wire.ErrMalformed
		}
		vs := make([]string, nvals)
		for j := uint64(0); j < nvals; j++ {
			if vs[j], err = r.String(); err != nil {
				return nil, err
			}
		}
		h[k] = vs
	}
	return h, nil
}

// AppendResponse appends resp's binary encoding (no magic byte):
//
//	uvarint(status) header bytes(body) bool(generated) bool(fromCache)
//	str(via) time(fetched)
func AppendResponse(buf []byte, resp *Response) []byte {
	buf = wire.AppendUvarint(buf, uint64(resp.Status))
	buf = AppendHeader(buf, resp.Header)
	buf = wire.AppendBytes(buf, resp.Body)
	buf = wire.AppendBool(buf, resp.Generated)
	buf = wire.AppendBool(buf, resp.FromCache)
	buf = wire.AppendString(buf, resp.Via)
	return wire.AppendTime(buf, resp.Fetched)
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
	if resp.Generated, err = r.Bool(); err != nil {
		return nil, err
	}
	if resp.FromCache, err = r.Bool(); err != nil {
		return nil, err
	}
	if resp.Via, err = r.String(); err != nil {
		return nil, err
	}
	if resp.Fetched, err = r.Time(); err != nil {
		return nil, err
	}
	return resp, nil
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
	return ReadResponse(&r)
}

// AppendRequest appends req's binary encoding (no magic byte):
//
//	str(method) str(url) header bytes(body) str(clientIP) time(received)
//	bool(redirected)
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
	buf = wire.AppendTime(buf, req.Received)
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
	if req.Received, err = r.Time(); err != nil {
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
	return ReadRequest(&r)
}
