package httpmsg

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
)

// BodyStream provides a response body as lazily resolved byte ranges. The
// chunked large-object tier backs this with content-addressed segments, so
// only the segments a reader actually touches are fetched or paged in.
// Implementations must be safe for concurrent Range calls.
type BodyStream interface {
	// TotalLen is the full length of the instance in bytes.
	TotalLen() int64
	// Range returns a reader over the half-open byte range [from, to).
	// Callers must Close the reader.
	Range(from, to int64) (io.ReadCloser, error)
}

// RangeWriter is a BodyStream that can write a range to w itself, as the
// WriteTo of a Range reader would, with no reader to allocate. WriteHTTP1
// serves a stream that implements it this way.
type RangeWriter interface {
	WriteRange(w io.Writer, from, to int64) (int64, error)
}

// TotalLen returns the full instance length in bytes: the total in
// Content-Range for a ranged (206) response, the stream's length when the
// body is streamed, len(Body) otherwise.
func (r *Response) TotalLen() int64 {
	switch {
	case r.ranged:
		_, _, total := r.contentRange()
		return total
	case r.Stream != nil:
		return r.Stream.TotalLen()
	}
	return int64(len(r.Body))
}

// BodyLen returns the number of body bytes this response will actually
// transmit: the range's for a ranged response, the full instance length
// otherwise.
func (r *Response) BodyLen() int64 {
	if r.ranged {
		from, to, _ := r.contentRange()
		return to - from
	}
	return r.TotalLen()
}

// rangeSpan returns the byte range [from, to) of the stream to send.
func (r *Response) rangeSpan() (from, to int64) {
	if r.ranged {
		from, to, _ = r.contentRange()
		return from, to
	}
	return 0, r.Stream.TotalLen()
}

// contentRange returns a ranged response's range [from, to) of its
// total-byte instance.
func (r *Response) contentRange() (from, to, total int64) {
	if r.Stream != nil {
		return r.rangeFrom, r.rangeBound, r.Stream.TotalLen()
	}
	return r.rangeFrom, r.rangeFrom + int64(len(r.Body)), r.rangeBound
}

// appendContentRange appends a ranged response's Content-Range value.
func (r *Response) appendContentRange(b []byte) []byte {
	from, to, total := r.contentRange()
	b = strconv.AppendInt(append(b, "bytes "...), from, 10)
	b = strconv.AppendInt(append(b, '-'), to-1, 10)
	return strconv.AppendInt(append(b, '/'), total, 10)
}

// SetStream replaces the body with a lazily resolved stream and keeps
// Content-Length consistent with the full instance length, for the scripts
// that read it: the header is rewritten only when it says otherwise (the
// writers put the length on the wire themselves).
func (r *Response) SetStream(s BodyStream) {
	r.Body = nil
	r.Stream = s
	r.ranged = false
	r.shared = false
	var buf [20]byte
	if n := strconv.AppendInt(buf[:0], s.TotalLen(), 10); r.Header.Get("Content-Length") != string(n) {
		r.Header.Set("Content-Length", string(n))
	}
}

// Materialize gives the response a Body of its own before whole-body
// consumers (scripts, codecs) operate on it. A streamed body is resolved into
// memory; for a ranged response the range is, and the response stays the
// 206 it was. A shared body (a Clone's, or a cache hit's in its request's
// reply buffer) is copied, so no write through it reaches another response.
// No-op for a body the response already owns.
func (r *Response) Materialize() error {
	if r.Stream == nil {
		if r.shared {
			r.Body = bytes.Clone(r.Body)
			r.shared = false
		}
		return nil
	}
	from, to := r.rangeSpan()
	rc, err := r.Stream.Range(from, to)
	if err != nil {
		return fmt.Errorf("httpmsg: materialize body: %w", err)
	}
	defer rc.Close()
	b := make([]byte, to-from)
	if _, err := io.ReadFull(rc, b); err != nil {
		return fmt.Errorf("httpmsg: materialize body: %w", err)
	}
	if r.ranged {
		r.rangeBound = r.Stream.TotalLen()
	}
	r.Body = b
	r.Stream = nil
	r.shared = false
	return nil
}

// Range parsing errors. ErrNotRange means the header is absent, malformed,
// multi-range, or uses a unit other than bytes — per RFC 7233 a server MAY
// ignore such a header and serve the full representation with a 200.
// ErrRangeUnsatisfiable means the range is syntactically valid but lies
// outside the representation; the server must answer 416.
var (
	ErrNotRange           = errors.New("httpmsg: not a byte range")
	ErrRangeUnsatisfiable = errors.New("httpmsg: range not satisfiable")
)

// ParseRange parses a single-range bytes= Range header value against a
// representation of total bytes, returning the half-open span [from, to).
// Multi-range requests are reported as ErrNotRange (we serve the full body
// rather than multipart/byteranges).
func ParseRange(spec string, total int64) (from, to int64, err error) {
	const prefix = "bytes="
	if !strings.HasPrefix(spec, prefix) {
		return 0, 0, ErrNotRange
	}
	spec = strings.TrimSpace(spec[len(prefix):])
	if spec == "" || strings.Contains(spec, ",") {
		return 0, 0, ErrNotRange
	}
	dash := strings.Index(spec, "-")
	if dash < 0 {
		return 0, 0, ErrNotRange
	}
	first, last := strings.TrimSpace(spec[:dash]), strings.TrimSpace(spec[dash+1:])
	if first == "" {
		// Suffix range "-K": the final K bytes.
		k, perr := strconv.ParseInt(last, 10, 64)
		if perr != nil || k < 0 {
			return 0, 0, ErrNotRange
		}
		if k == 0 || total == 0 {
			return 0, 0, ErrRangeUnsatisfiable
		}
		if k > total {
			k = total
		}
		return total - k, total, nil
	}
	from, perr := strconv.ParseInt(first, 10, 64)
	if perr != nil || from < 0 {
		return 0, 0, ErrNotRange
	}
	if last == "" {
		// Open range "N-": from N to the end.
		if from >= total {
			return 0, 0, ErrRangeUnsatisfiable
		}
		return from, total, nil
	}
	end, perr := strconv.ParseInt(last, 10, 64)
	if perr != nil || end < from {
		return 0, 0, ErrNotRange
	}
	if from >= total {
		return 0, 0, ErrRangeUnsatisfiable
	}
	to = end + 1
	if to > total {
		to = total
	}
	return from, to, nil
}

// NewRangeNotSatisfiable builds the 416 reply for an unsatisfiable byte
// range against a representation of total bytes, with the required
// Content-Range: bytes */total header (RFC 7233 §4.2).
func NewRangeNotSatisfiable(total int64) *Response {
	resp := NewTextResponse(http.StatusRequestedRangeNotSatisfiable,
		"416 Requested Range Not Satisfiable\n")
	resp.Header.Set("Content-Range", "bytes */"+strconv.FormatInt(total, 10))
	return resp
}

// ApplyRange narrows resp according to the request's Range header, returning
// the response to transmit:
//
//   - no Range header, non-GET/HEAD method, or non-200 response: resp
//     unchanged (a script-ranged or upstream-206 response is passed through);
//   - malformed or multi-range header: resp unchanged (full 200);
//   - unsatisfiable range: a fresh 416 with Content-Range: bytes */total;
//   - satisfiable range: a 206 view of resp, in the Response req's Reuse
//     lends for it (see Reuse) or a fresh one, whose Content-Range,
//     Content-Length and Accept-Ranges the writers (WriteHTTP1,
//     WriteToMethod, EncodeResponse) put in their places among resp's
//     header, which is not rewritten for them. The body is shared, not
//     copied — a whole-body response is sliced (capacity-limited, and
//     still shared if resp's body was), a streamed response stays lazy so
//     only the segments covering the range are ever resolved.
func ApplyRange(req *Request, resp *Response) *Response {
	if resp.Status != http.StatusOK || resp.ranged {
		return resp
	}
	if req.Method != http.MethodGet && req.Method != http.MethodHead {
		return resp
	}
	spec := req.Header.Get("Range")
	if spec == "" {
		return resp
	}
	total := resp.TotalLen()
	from, to, err := ParseRange(spec, total)
	if err != nil {
		if errors.Is(err, ErrRangeUnsatisfiable) {
			return NewRangeNotSatisfiable(total)
		}
		return resp
	}
	out := req.lentPartial()
	*out = Response{
		Status:    http.StatusPartialContent,
		Header:    resp.Header,
		Generated: resp.Generated,
		FromCache: resp.FromCache,
		Via:       resp.Via,
		Stamp:     resp.Stamp,
		ranged:    true,
		rangeFrom: from,
	}
	if resp.Stream != nil {
		out.Stream, out.rangeBound = resp.Stream, to
	} else {
		out.Body, out.rangeBound = resp.Body[from:to:to], total
		out.shared = resp.shared
	}
	return out
}
