// Package httpmsg defines the HTTP request and response representation used
// by the Na Kika scripting pipeline.
//
// Pipeline stages interpose on complete messages: for responses, the body
// always represents the entire instance of the HTTP resource (Section 3.1 of
// the paper) so that the resource can be correctly transcoded. The types here
// are deliberately independent of net/http so they can flow between the
// proxy, the cache, the script vocabularies, and the overlay without carrying
// connection state. The node's own HTTP/1.x codec reads and writes them on
// the wire: http1.go on the client port, client.go towards origins. The
// conversions ServeHTTP still makes from and to net/http live at the bottom
// of this file.
package httpmsg

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"
)

// Request is a complete HTTP request as seen by the pipeline.
type Request struct {
	// Method is the HTTP method (GET, POST, ...).
	Method string
	// URL is the absolute request URL.
	URL *url.URL
	// Header holds the request headers in canonical form.
	Header http.Header
	// Body is the full request body (may be nil).
	Body []byte
	// ClientIP is the IP address of the originating client (without port).
	ClientIP string
	// Received is when the edge node accepted the request.
	Received time.Time
	// terminated, when non-nil, is a response produced by a script calling
	// Request.terminate(status); the pipeline short-circuits to it.
	terminated *Response
	// Redirected records whether a script rewrote the URL.
	Redirected bool
	// TraceID is the request's cross-node trace id (zero: untraced). The
	// ingress node mints it; offload forwards carry it so both sides of a
	// forwarded request record the same id.
	TraceID uint64
	// urlBuf is the inline URL storage SetURLCopy points URL at, so pooled
	// requests carry their URL without a per-request url.URL allocation.
	urlBuf url.URL
}

// NewRequest builds a request for the given method and raw URL.
func NewRequest(method, rawURL string) (*Request, error) {
	u, err := url.Parse(rawURL)
	if err != nil {
		return nil, fmt.Errorf("httpmsg: parse url %q: %w", rawURL, err)
	}
	if u.Scheme == "" {
		u.Scheme = "http"
	}
	return &Request{
		Method:   method,
		URL:      u,
		Header:   make(http.Header),
		Received: time.Now(),
	}, nil
}

// MustRequest is NewRequest that panics on error; for tests and fixtures.
func MustRequest(method, rawURL string) *Request {
	r, err := NewRequest(method, rawURL)
	if err != nil {
		panic(err)
	}
	return r
}

// Host returns the host (without port) the request is addressed to.
func (r *Request) Host() string {
	if r.URL == nil {
		return ""
	}
	return r.URL.Hostname()
}

// Path returns the URL path, defaulting to "/".
func (r *Request) Path() string {
	if r.URL == nil || r.URL.Path == "" {
		return "/"
	}
	return r.URL.Path
}

// SiteKey identifies the origin site for resource accounting and hard state
// partitioning: the URL host without port, lower-cased.
func (r *Request) SiteKey() string {
	return strings.ToLower(r.Host())
}

// CacheKey is the canonical key under which a response to this request is
// cached and published in the cooperative cache index: method plus the URL
// without fragment.
func (r *Request) CacheKey() string {
	u := r.URL
	if u.Fragment != "" || u.RawFragment != "" {
		cp := *u
		cp.Fragment, cp.RawFragment = "", ""
		u = &cp
	}
	return r.Method + " " + u.String()
}

// Clone returns a deep copy of the request (headers and body included).
func (r *Request) Clone() *Request {
	cp := &Request{
		Method:     r.Method,
		Header:     cloneHeader(r.Header),
		ClientIP:   r.ClientIP,
		Received:   r.Received,
		Redirected: r.Redirected,
		TraceID:    r.TraceID,
	}
	if r.URL != nil {
		u := *r.URL
		cp.URL = &u
	}
	if r.Body != nil {
		cp.Body = append([]byte(nil), r.Body...)
	}
	return cp
}

// SetURL replaces the request URL, marking the request as redirected when the
// host or path changes; scripts use this to interpose one service on another
// (Section 3.1, dynamically scheduled stages).
func (r *Request) SetURL(rawURL string) error {
	u, err := url.Parse(rawURL)
	if err != nil {
		return fmt.Errorf("httpmsg: parse url %q: %w", rawURL, err)
	}
	if u.Scheme == "" {
		u.Scheme = "http"
	}
	if r.URL == nil || u.Host != r.URL.Host || u.Path != r.URL.Path || u.RawQuery != r.URL.RawQuery {
		r.Redirected = true
	}
	r.URL = u
	return nil
}

// Terminate records a terminal response with the given status code, as
// produced by the Request.terminate(code) vocabulary call in Figure 5 of the
// paper. A zero or invalid code maps to 500.
func (r *Request) Terminate(status int) *Response {
	if status < 100 || status > 599 {
		status = http.StatusInternalServerError
	}
	resp := NewResponse(status)
	resp.Header.Set("Content-Type", "text/plain; charset=utf-8")
	resp.SetBodyString(fmt.Sprintf("%d %s\n", status, http.StatusText(status)))
	r.terminated = resp
	return resp
}

// Terminated returns the response recorded by Terminate, or nil.
func (r *Request) Terminated() *Response { return r.terminated }

// ClearTermination removes a previously recorded termination; the pipeline
// uses this between stages.
func (r *Request) ClearTermination() { r.terminated = nil }

// Cookie returns the named cookie value and whether it was present.
func (r *Request) Cookie(name string) (string, bool) {
	for _, line := range r.Header.Values("Cookie") {
		for _, part := range strings.Split(line, ";") {
			kv := strings.SplitN(strings.TrimSpace(part), "=", 2)
			if len(kv) == 2 && kv[0] == name {
				return kv[1], true
			}
		}
	}
	return "", false
}

// Query returns the named query parameter (first value).
func (r *Request) Query(name string) string {
	if r.URL == nil {
		return ""
	}
	return r.URL.Query().Get(name)
}

// Response is a complete HTTP response as seen by the pipeline.
type Response struct {
	// Status is the HTTP status code.
	Status int
	// Header holds the response headers in canonical form.
	Header http.Header
	// Body is the entire instance of the resource. It may alias a cached
	// copy (see Clone): call Materialize before writing into it.
	Body []byte
	// Generated marks responses created by scripts (rather than fetched from
	// the origin or the cache); generated responses skip origin fetching.
	Generated bool
	// FromCache marks responses served from the local or cooperative cache.
	FromCache bool
	// Via records which node produced or forwarded the response (cooperative
	// caching provenance).
	Via string
	// Fetched is when the response was obtained from its source.
	Fetched time.Time
	// Stream, when non-nil, provides the body as lazily resolved byte
	// ranges instead of Body (which stays nil while streaming). The chunked
	// large-object tier serves multi-MB instances this way so they are
	// never buffered whole; scripts that need the bytes call Materialize.
	Stream BodyStream
	// rangeFrom/rangeTo bound the active byte range [rangeFrom, rangeTo)
	// when ranged is set. ApplyRange produces ranged (206) responses.
	rangeFrom, rangeTo int64
	ranged             bool
	// shared marks a Body that aliases another response's bytes (a Clone's,
	// which is how the cache hands out its copies). Such a Body is read-only
	// until Materialize replaces it with a private copy.
	shared bool
}

// NewResponse returns an empty response with the given status.
func NewResponse(status int) *Response {
	return &Response{
		Status:  status,
		Header:  make(http.Header),
		Fetched: time.Now(),
	}
}

// NewTextResponse builds a text/plain response with the given status and
// body.
func NewTextResponse(status int, body string) *Response {
	r := NewResponse(status)
	r.Header.Set("Content-Type", "text/plain; charset=utf-8")
	r.SetBodyString(body)
	return r
}

// NewErrorResponse is the node's error reply, as http.Error writes one: the
// message and a newline as text/plain, not to be sniffed.
func NewErrorResponse(status int, msg string) *Response {
	r := NewTextResponse(status, msg+"\n")
	r.Header.Set("X-Content-Type-Options", "nosniff")
	return r
}

// NewHTMLResponse builds a text/html response.
func NewHTMLResponse(status int, body string) *Response {
	r := NewResponse(status)
	r.Header.Set("Content-Type", "text/html; charset=utf-8")
	r.SetBodyString(body)
	return r
}

// SetBody replaces the response body and keeps Content-Length consistent.
// Any body stream is dropped: after SetBody the response is whole-body again.
func (r *Response) SetBody(b []byte) {
	r.Body = b
	r.Stream = nil
	r.ranged = false
	r.shared = false
	r.Header.Set("Content-Length", strconv.Itoa(len(b)))
}

// SetBodyString replaces the body with the given string.
func (r *Response) SetBodyString(s string) { r.SetBody([]byte(s)) }

// ContentType returns the Content-Type header without parameters.
func (r *Response) ContentType() string {
	ct := r.Header.Get("Content-Type")
	if i := strings.Index(ct, ";"); i >= 0 {
		ct = ct[:i]
	}
	return strings.TrimSpace(ct)
}

// Clone returns a copy of the response with its own headers and the same
// body bytes. The clone's Body is a full slice expression over r's, so an
// append to it never writes into r's array, and it is marked shared: it is
// read-only until Materialize, which every script access to a body goes
// through, gives the clone a private copy. A cache hit therefore copies no
// bytes unless a script touches them. A body stream is shared too: streams
// are read-only views over the segment tier.
func (r *Response) Clone() *Response {
	n := len(r.Body)
	return &Response{
		Status:    r.Status,
		Header:    cloneHeader(r.Header),
		Body:      r.Body[:n:n],
		Generated: r.Generated,
		FromCache: r.FromCache,
		Via:       r.Via,
		Fetched:   r.Fetched,
		Stream:    r.Stream,
		rangeFrom: r.rangeFrom,
		rangeTo:   r.rangeTo,
		ranged:    r.ranged,
		shared:    true,
	}
}

// ---------------------------------------------------------------------------
// Cache-control helpers (expiration-based consistency, Section 3.3)
// ---------------------------------------------------------------------------

// cacheControl is what a shared cache reads from a response's Cache-Control
// header lines. The directive list is split once, token by token and without
// regard to case, so Storable and FreshFor cannot disagree about what a
// header says.
type cacheControl struct {
	// noStore is set by no-store, private and no-cache alike: this cache has
	// no revalidate-before-every-use mode, so it stores none of them.
	noStore bool
	// maxAge and sMaxAge are -1 when the directive is absent or is not a
	// whole number of seconds.
	maxAge, sMaxAge time.Duration
}

func parseCacheControl(h http.Header) cacheControl {
	cc := cacheControl{maxAge: -1, sMaxAge: -1}
	for _, line := range h.Values("Cache-Control") {
		for line != "" {
			var directive string
			directive, line, _ = strings.Cut(line, ",")
			name, arg, _ := strings.Cut(strings.TrimSpace(directive), "=")
			switch {
			case strings.EqualFold(name, "no-store"), strings.EqualFold(name, "private"), strings.EqualFold(name, "no-cache"):
				cc.noStore = true
			case strings.EqualFold(name, "max-age"):
				cc.maxAge = deltaSeconds(arg)
			case strings.EqualFold(name, "s-maxage"):
				cc.sMaxAge = deltaSeconds(arg)
			}
		}
	}
	return cc
}

func deltaSeconds(arg string) time.Duration {
	secs, err := strconv.ParseUint(arg, 10, 31)
	if err != nil {
		return -1
	}
	return time.Duration(secs) * time.Second
}

// Storable reports whether a shared cache may store a response with this
// status and these headers. It is the one storability rule: the whole-body
// cache asks it of a buffered response, the large-object tier of a streaming
// head whose body has not been read yet. 304 Not Modified is deliberately not
// storable as content: it carries no body, so storing it would later serve an
// empty page. A 304 instead revalidates the stored 200 (see cache.Refresh).
func Storable(status int, h http.Header) bool {
	if status != http.StatusOK && status != http.StatusMovedPermanently && status != http.StatusNotFound {
		return false
	}
	return !parseCacheControl(h).noStore
}

// FreshFor returns how long a shared cache may serve a response carrying
// these headers without revalidation: s-maxage, else max-age, else the time
// left until Expires. ok is false when the headers carry no freshness
// information at all — the default TTL is then applied by the cache
// (cache.Expiry), not here. With ok true a duration of zero or less means
// the response is stale on arrival (max-age=0, s-maxage=0, an Expires that
// is not in the future or is not a date: RFC 9111 section 5.3 reads an
// invalid Expires, "0" especially, as already expired) and must not be given
// the default TTL.
func FreshFor(h http.Header, now time.Time) (fresh time.Duration, ok bool) {
	cc := parseCacheControl(h)
	if cc.sMaxAge >= 0 {
		return cc.sMaxAge, true
	}
	if cc.maxAge >= 0 {
		return cc.maxAge, true
	}
	if exp := h.Get("Expires"); exp != "" {
		t, err := http.ParseTime(exp)
		if err != nil {
			return 0, true
		}
		return t.Sub(now), true
	}
	return 0, false
}

// Cacheable reports whether the response may be stored by a shared cache.
func (r *Response) Cacheable() bool { return Storable(r.Status, r.Header) }

// SetMaxAge sets the Cache-Control max-age directive in seconds.
func (r *Response) SetMaxAge(seconds int) {
	r.Header.Set("Cache-Control", "max-age="+strconv.Itoa(seconds))
}

// SetAbsoluteExpiry sets the Expires header to an absolute time; the content
// integrity scheme in Section 6 requires absolute expiration times because
// untrusted nodes cannot be trusted to decrement relative ones.
func (r *Response) SetAbsoluteExpiry(t time.Time) {
	r.Header.Set("Expires", t.UTC().Format(http.TimeFormat))
}

// ---------------------------------------------------------------------------
// Conversion to and from net/http
// ---------------------------------------------------------------------------

// FromHTTPRequest converts an inbound net/http request (as received by the
// proxy listener) into a pipeline Request, reading at most maxBody bytes of
// body. A maxBody of zero or less means unlimited.
func FromHTTPRequest(hr *http.Request, maxBody int64) (*Request, error) {
	req := &Request{Header: make(http.Header, len(hr.Header)), Received: time.Now()}
	if err := fillFromHTTPRequest(req, hr, maxBody); err != nil {
		return nil, err
	}
	return req, nil
}

// fillFromHTTPRequest populates req (whose Header map must be live) from an
// inbound net/http request; shared by the allocating and pooled converters.
//
// A bodyless request (a server hands every GET http.NoBody) reads nothing
// and leaves req.Body nil. Otherwise a declared length over maxBody is
// refused before any byte is read, and the body is read through a limit of
// maxBody+1 into a buffer that grows with the bytes that actually arrive:
// a Content-Length header alone buys no allocation.
func fillFromHTTPRequest(req *Request, hr *http.Request, maxBody int64) error {
	req.Method = hr.Method
	req.SetURLCopy(hr.URL)
	if req.URL.Host == "" {
		req.URL.Host = hr.Host
	}
	if req.URL.Scheme == "" {
		req.URL.Scheme = "http"
	}
	copyHeaderInto(req.Header, hr.Header)
	req.ClientIP = ClientIP(hr.RemoteAddr)
	if hr.Body == nil || hr.Body == http.NoBody || hr.ContentLength == 0 {
		return nil
	}
	if maxBody <= 0 {
		maxBody = math.MaxInt64 - 1
	}
	if hr.ContentLength > maxBody {
		return bodyTooLarge(maxBody)
	}
	body, err := io.ReadAll(io.LimitReader(hr.Body, maxBody+1))
	if err != nil {
		return fmt.Errorf("httpmsg: read request body: %w", err)
	}
	if int64(len(body)) > maxBody {
		return bodyTooLarge(maxBody)
	}
	req.Body = body
	return nil
}

// WriteTo writes the response to a net/http ResponseWriter, assuming a GET
// request. Callers that know the request method should use WriteToMethod so
// HEAD replies omit the body.
func (r *Response) WriteTo(w http.ResponseWriter) error {
	return r.WriteToMethod(w, http.MethodGet)
}

// bodyless reports whether the status code forbids a message body
// (RFC 7230 §3.3.3): 1xx, 204 and 304.
func bodyless(status int) bool {
	return (status >= 100 && status < 200) ||
		status == http.StatusNoContent || status == http.StatusNotModified
}

// WriteToMethod writes the response to a net/http ResponseWriter for a reply
// to the given request method.
//
//   - 204, 304 and 1xx replies carry no body and no synthesized
//     Content-Length: a 304 keeps whatever validator headers (including a
//     Content-Length describing the selected representation) it arrived with,
//     rather than advertising a zero-length body.
//   - HEAD replies send the headers — with Content-Length describing the
//     body that a GET would have returned — but no body.
//   - Everything else sends Content-Length plus the body; a streamed body
//     is copied piece by piece (a segment at a time when the stream is an
//     io.WriterTo) and flushed after each, so the first byte reaches the
//     client before the stream finishes.
func (r *Response) WriteToMethod(w http.ResponseWriter, method string) error {
	for k, vs := range r.Header {
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	if bodyless(r.Status) {
		// No body, and no invented Content-Length: for a 304 the carried
		// headers describe the validated representation, not this message.
		w.WriteHeader(r.Status)
		return nil
	}
	w.Header().Set("Content-Length", strconv.FormatInt(r.BodyLen(), 10))
	w.WriteHeader(r.Status)
	if method == http.MethodHead {
		return nil
	}
	if r.Stream == nil {
		_, err := w.Write(r.Body)
		return err
	}
	from, to := r.rangeSpan()
	rc, err := r.Stream.Range(from, to)
	if err != nil {
		return fmt.Errorf("httpmsg: open body stream: %w", err)
	}
	defer rc.Close()
	flusher, _ := w.(http.Flusher)
	if _, err := io.Copy(flushWriter{w, flusher}, rc); err != nil {
		return fmt.Errorf("httpmsg: copy body stream: %w", err)
	}
	return nil
}

// flushWriter flushes after every write, so each piece of a streamed body
// is on its way to the client before the next is resolved.
type flushWriter struct {
	w io.Writer
	f http.Flusher // nil when the ResponseWriter cannot flush
}

func (fw flushWriter) Write(p []byte) (int, error) {
	n, err := fw.w.Write(p)
	if fw.f != nil {
		fw.f.Flush()
	}
	return n, err
}

// anyListElement calls f on each non-empty element of the comma-separated
// lists in values, its blanks trimmed, and reports whether f returned true
// for one; it stops there.
func anyListElement(values []string, f func(elem string) bool) bool {
	for _, v := range values {
		for v != "" {
			var elem string
			elem, v, _ = strings.Cut(v, ",")
			if elem = strings.Trim(elem, " \t"); elem != "" && f(elem) {
				return true
			}
		}
	}
	return false
}

// cloneHeader deep-copies a header in two allocations: the map and one flat
// backing array all value slices are carved from (rather than one slice
// allocation per key). Callers may append to a cloned key's values; append
// sees the sub-slice at full length and copies out, so siblings are safe.
func cloneHeader(h http.Header) http.Header {
	out := make(http.Header, len(h))
	n := 0
	for _, vs := range h {
		n += len(vs)
	}
	flat := make([]string, 0, n)
	for k, vs := range h {
		lo := len(flat)
		flat = append(flat, vs...)
		out[k] = flat[lo:len(flat):len(flat)]
	}
	return out
}
