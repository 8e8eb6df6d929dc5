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

// TotalLen returns the full instance length in bytes: the stream's length
// when the body is streamed, len(Body) otherwise. For a ranged (206)
// response this is still the length of the complete representation, matching
// the total in Content-Range.
func (r *Response) TotalLen() int64 {
	if r.Stream != nil {
		return r.Stream.TotalLen()
	}
	return int64(len(r.Body))
}

// BodyLen returns the number of body bytes this response will actually
// transmit: the active range span for ranged responses, the full instance
// length otherwise.
func (r *Response) BodyLen() int64 {
	from, to := r.rangeSpan()
	return to - from
}

// rangeSpan returns the active byte range [from, to) of the body to send.
func (r *Response) rangeSpan() (from, to int64) {
	if r.ranged {
		return r.rangeFrom, r.rangeTo
	}
	return 0, r.TotalLen()
}

// SetStream replaces the body with a lazily resolved stream and keeps
// Content-Length consistent with the full instance length.
func (r *Response) SetStream(s BodyStream) {
	r.Body = nil
	r.Stream = s
	r.ranged = false
	r.shared = false
	r.Header.Set("Content-Length", strconv.FormatInt(s.TotalLen(), 10))
}

// Materialize gives the response a Body of its own before whole-body
// consumers (scripts, codecs) operate on it. A streamed body is resolved into
// memory; for a ranged response the active range is. A shared body (a
// Clone's, or a cache hit's in its request's reply buffer) is copied, so no
// write through it reaches another response. No-op for a body the response
// already owns.
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
	r.Body = b
	r.Stream = nil
	r.ranged = false
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
//   - satisfiable range: a 206 view of resp with Content-Range and
//     Content-Length set. The body is shared, not copied — a whole-body
//     response is sliced (capacity-limited, and still shared if resp's
//     body was), a streamed response stays lazy so only the segments
//     covering the range are ever resolved.
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
	out := &Response{
		Status:    http.StatusPartialContent,
		Header:    resp.Header,
		Generated: resp.Generated,
		FromCache: resp.FromCache,
		Via:       resp.Via,
		Stamp:     resp.Stamp,
	}
	if resp.Stream != nil {
		out.Stream = resp.Stream
		out.rangeFrom, out.rangeTo = from, to
		out.ranged = true
	} else {
		out.Body = resp.Body[from:to:to]
		out.shared = resp.shared
	}
	out.Header.Set("Content-Range",
		"bytes "+strconv.FormatInt(from, 10)+"-"+strconv.FormatInt(to-1, 10)+
			"/"+strconv.FormatInt(total, 10))
	out.Header.Set("Content-Length", strconv.FormatInt(to-from, 10))
	out.Header.Set("Accept-Ranges", "bytes")
	return out
}
