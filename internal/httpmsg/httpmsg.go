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
	"slices"
	"strconv"
	"strings"
	"time"

	"nakika/internal/wire"
)

// Request is a complete HTTP request as seen by the pipeline.
type Request struct {
	// Method is the HTTP method (GET, POST, ...).
	Method string
	// URL is the absolute request URL.
	URL *url.URL
	// Header holds the request headers in canonical form.
	Header Header
	// Body is the full request body (may be nil).
	Body []byte
	// ClientIP is the IP address of the originating client (without port).
	ClientIP string
	// terminated, when non-nil, is a response produced by a script calling
	// Request.terminate(status); the pipeline short-circuits to it.
	terminated *Response
	// Redirected records whether a script rewrote the URL.
	Redirected bool
	// replyLent, respLent and partialLent say this request has lent its
	// reply buffer (ReplyBuffer), its hit Response (Stored.Response) and its
	// 206 (ApplyRange).
	replyLent, respLent, partialLent bool
	// TraceID is the request's cross-node trace id (zero: untraced). The
	// ingress node mints it; offload forwards carry it so both sides of a
	// forwarded request record the same id.
	TraceID uint64
	// urlBuf is the inline URL storage SetURLCopy points URL at, so pooled
	// requests carry their URL without a per-request url.URL allocation.
	urlBuf url.URL
	// reuse is what its stager lends the request for the duration
	// (SetReuse): a buffer for the body of a cache hit served in reply to it
	// (ReplyBuffer), the hit's Response, the buffer of its cache key
	// (CacheKeyBytes), and the URL SiteURL built last.
	reuse *Reuse
}

// SiteURL returns scheme://host/name for the request's URL, the scheme
// "http" when the URL has none: the location of a file at the root of the
// request's site, as a site's nakika.js is. A request given a Reuse
// (SetReuse) returns the URL it holds when that is the one asked for and
// leaves the one it builds there, so the requests a keep-alive client sends
// to one site build it once.
func (r *Request) SiteURL(name string) string {
	scheme, host := r.URL.Scheme, r.URL.Host
	if scheme == "" {
		scheme = "http"
	}
	if r.reuse != nil {
		if m := r.reuse.site; m.url != "" && m.url[:m.ls] == scheme && m.url[m.ls+3:m.ls+3+m.lh] == host && m.url[m.ls+4+m.lh:] == name {
			return m.url
		}
	}
	u := scheme + "://" + host + "/" + name
	if r.reuse != nil {
		r.reuse.site = siteURL{url: u, ls: len(scheme), lh: len(host)}
	}
	return u
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
	return &Request{Method: method, URL: u}, nil
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
// without fragment. A URL whose String would write its fields as they are,
// as the client port's parse of an origin-form target gives, is written
// from them in one allocation.
func (r *Request) CacheKey() string {
	var buf [128]byte
	return string(r.appendCacheKey(buf[:0]))
}

// CacheKeyBytes is CacheKey written into the buffer r's Reuse lends (a
// fresh one without): read-only, and valid until the key of the
// connection's next request is asked for. The memory tier looks a key up by
// its bytes (cache.Cache.GetFor), so a hit makes no key string. A buffer
// grown past maxKeptKey is not kept, so one outsized URL does not stay with
// the connection.
func (r *Request) CacheKeyBytes() []byte {
	if r.reuse == nil {
		return r.appendCacheKey(nil)
	}
	b := r.appendCacheKey(r.reuse.key[:0])
	if cap(b) <= maxKeptKey {
		r.reuse.key = b
	}
	return b
}

// maxKeptKey bounds the key buffer a Reuse keeps between requests.
const maxKeptKey = 8 << 10

// appendCacheKey appends CacheKey's bytes to b.
func (r *Request) appendCacheKey(b []byte) []byte {
	u := r.URL
	b = append(append(b, r.Method...), ' ')
	if u.Opaque == "" && u.User == nil && u.RawPath == "" && u.Scheme != "" && u.Host != "" &&
		allIn(u.Host, &keyHostByte) && (u.Path == "" || u.Path[0] == '/') && allIn(u.Path, &pathByte) {
		b = append(append(append(append(b, u.Scheme...), "://"...), u.Host...), u.Path...)
		if u.ForceQuery || u.RawQuery != "" {
			b = append(append(b, '?'), u.RawQuery...)
		}
		return b
	}
	if u.Fragment != "" || u.RawFragment != "" {
		cp := *u
		cp.Fragment, cp.RawFragment = "", ""
		u = &cp
	}
	return append(b, u.String()...)
}

// Clone returns a deep copy of the request (headers and body included).
func (r *Request) Clone() *Request {
	cp := &Request{
		Method:     r.Method,
		Header:     r.Header,
		ClientIP:   r.ClientIP,
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
	c, n, _ := r.Header.seek("Cookie")
	for ; n > 0; n-- {
		for line := c.str(); line != ""; {
			var part string
			part, line, _ = strings.Cut(line, ";")
			if k, v, ok := strings.Cut(strings.TrimSpace(part), "="); ok && k == name {
				return v, true
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
	Header Header
	// Body is the entire instance of the resource. It may alias another
	// response's (see Clone): call Materialize before writing into it.
	Body []byte
	// Generated marks responses created by scripts (rather than fetched from
	// the origin or the cache); generated responses skip origin fetching.
	Generated bool
	// FromCache marks responses served from the local or cooperative cache.
	FromCache bool
	// Stale marks a cached copy the fetch chain served past its expiry
	// because its revalidation failed (cache.ServesStale).
	Stale bool
	// ranged marks a 206 ApplyRange made, whose range fields (see
	// contentRange) the writers put on the wire.
	ranged bool
	// shared marks a Body that aliases another response's bytes (a Clone's,
	// or a range of one) or a request's reply buffer (a cache hit's). Such a
	// Body is read-only until Materialize replaces it with a private copy.
	// (The five flags sit together and Stamp is a pointer, so a Response
	// fits the allocator's 112-byte class.)
	shared bool
	// Via records which node produced or forwarded the response (cooperative
	// caching provenance).
	Via string
	// Stamp, when not nil, holds the fields the serving node adds to Header
	// on the way out (its X-Na-Kika-Node and X-Na-Kika-Gen), kept apart so
	// that a cache hit's stored Header goes out as stored instead of being
	// rebuilt for them. WriteHTTP1 and WriteToMethod write Stamp's fields
	// in their sorted places among Header's, a Stamp key replacing the same
	// key of Header, and EncodeResponse folds them into the Header it
	// sends. The node shares one Stamp among its responses: replace it,
	// never write through it.
	Stamp *Header
	// Stream, when non-nil, provides the body as lazily resolved byte
	// ranges instead of Body (which stays nil while streaming). The chunked
	// large-object tier serves multi-MB instances this way so they are
	// never buffered whole; scripts that need the bytes call Materialize.
	Stream BodyStream
	// rangeFrom is the first byte of a ranged response's range, and
	// rangeBound the one number of its Content-Range the body does not
	// give: the range's end for a Stream, whose length is the instance's,
	// or the instance's length for a Body, which holds the range alone.
	rangeFrom, rangeBound int64
}

// NewResponse returns an empty response with the given status.
func NewResponse(status int) *Response {
	return &Response{Status: status}
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

// Clone returns a copy of the response with the same header, which a write
// to either replaces, and the same body bytes. The clone's Body is a full
// slice expression over r's, so an append to it never writes into r's array,
// and it is marked shared: it is read-only until Materialize, which every
// script access to a body goes through, gives the clone a private copy. The
// callers of one coalesced fetch therefore share its bytes until a script
// touches them. A body stream is shared too: streams are read-only views
// over the segment tier.
func (r *Response) Clone() *Response {
	n := len(r.Body)
	return &Response{
		Status:     r.Status,
		Header:     r.Header,
		Body:       r.Body[:n:n],
		Generated:  r.Generated,
		FromCache:  r.FromCache,
		Stale:      r.Stale,
		Via:        r.Via,
		Stamp:      r.Stamp,
		Stream:     r.Stream,
		rangeFrom:  r.rangeFrom,
		rangeBound: r.rangeBound,
		ranged:     r.ranged,
		shared:     true,
	}
}

// StoredForm returns the form a cache keeps r in (Stored): its header, body
// and scalar fields as they are. The body is r's own: a cache copies it into
// storage of its own before r goes on.
func (r *Response) StoredForm() Stored {
	return Stored{
		Status:    r.Status,
		Header:    r.Header,
		Body:      r.Body,
		Via:       r.Via,
		Generated: r.Generated,
		FromCache: r.FromCache,
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
	// public and mustRevalidate are the directives that let a shared cache
	// reuse a reply to a request that carried Authorization (RFC 9111 §3.5),
	// as s-maxage does.
	public, mustRevalidate bool
	// proxyRevalidate is must-revalidate for a shared cache alone.
	proxyRevalidate bool
	// maxAge, sMaxAge and staleIfError are -1 when the directive is absent
	// or is not a whole number of seconds.
	maxAge, sMaxAge, staleIfError time.Duration
}

func parseCacheControl(h Header) cacheControl {
	cc := cacheControl{maxAge: -1, sMaxAge: -1, staleIfError: -1}
	h.anyElement("Cache-Control", func(directive string) bool {
		name, arg, _ := strings.Cut(directive, "=")
		switch {
		case strings.EqualFold(name, "no-store"), strings.EqualFold(name, "private"), strings.EqualFold(name, "no-cache"):
			cc.noStore = true
		case strings.EqualFold(name, "public"):
			cc.public = true
		case strings.EqualFold(name, "must-revalidate"):
			cc.mustRevalidate = true
		case strings.EqualFold(name, "proxy-revalidate"):
			cc.proxyRevalidate = true
		case strings.EqualFold(name, "stale-if-error"):
			cc.staleIfError = deltaSeconds(arg)
		case strings.EqualFold(name, "max-age"):
			cc.maxAge = deltaSeconds(arg)
		case strings.EqualFold(name, "s-maxage"):
			cc.sMaxAge = deltaSeconds(arg)
		}
		return false
	})
	return cc
}

// maxDelta is what a delta-seconds value too large to represent reads as
// (RFC 9111 §1.2.2): 2^31 seconds.
const maxDelta = 1 << 31

// deltaSeconds reads a delta-seconds value, a non-empty run of digits, or
// returns -1. A value above maxDelta reads as maxDelta.
func deltaSeconds(arg string) time.Duration {
	if arg == "" {
		return -1
	}
	secs := int64(0)
	for i := 0; i < len(arg); i++ {
		c := arg[i]
		if c < '0' || c > '9' {
			return -1
		}
		secs = min(secs*10+int64(c-'0'), maxDelta)
	}
	return time.Duration(secs) * time.Second
}

// Storable reports whether a shared cache may store a response with this
// status and these headers. It is the one storability rule: the whole-body
// cache asks it of a buffered response, the large-object tier of a streaming
// head whose body has not been read yet. 304 Not Modified is deliberately not
// storable as content: it carries no body, so storing it would later serve an
// empty page. A 304 instead revalidates the stored 200 (see cache.Refresh).
// Nor is a reply that carries Vary: the node keys a copy by its URL alone,
// so it could not tell which request a variant answers (RFC 9111 §4.1), and
// such a reply passes through uncached.
func Storable(status int, h Header) bool {
	if status != http.StatusOK && status != http.StatusMovedPermanently && status != http.StatusNotFound {
		return false
	}
	return !h.Has("Vary") && !parseCacheControl(h).noStore
}

// Shareable reports whether a shared cache may keep a reply to req and hand
// it to other requests: the one rule for what the node stores and for what a
// flight of coalesced misses shares. The reply must be Storable, and a reply
// to a request that carried Authorization must say it is for everyone
// (RFC 9111 §3.5: public, s-maxage or must-revalidate).
func Shareable(req *Request, status int, h Header) bool {
	if !Storable(status, h) {
		return false
	}
	if req.Header.Get("Authorization") == "" {
		return true
	}
	cc := parseCacheControl(h)
	return cc.public || cc.sMaxAge >= 0 || cc.mustRevalidate
}

// FreshFor returns how long a shared cache may serve a response carrying
// these headers without revalidation: s-maxage, else max-age, less the Age
// the reply arrived with (RFC 9111 §4.2.3), else the time left until
// Expires, an absolute time no Age moves. ok is false when the headers carry
// no freshness information at all — the default TTL is then applied by the
// cache (cache.Expiry), not here. With ok true a duration of zero or less
// means the response is stale on arrival (max-age=0, s-maxage=0, an Expires
// that is not in the future or is not a date: RFC 9111 section 5.3 reads an
// invalid Expires, "0" especially, as already expired) and must not be given
// the default TTL.
func FreshFor(h Header, now time.Time) (fresh time.Duration, ok bool) {
	cc := parseCacheControl(h)
	lifetime := cc.sMaxAge
	if lifetime < 0 {
		lifetime = cc.maxAge
	}
	if lifetime >= 0 {
		return lifetime - max(deltaSeconds(h.Get("Age")), 0), true
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

// StaleWindow returns how long past its expiry a shared cache may serve a
// copy with these headers when its refetch failed: never (ok false) when it
// says must-revalidate, proxy-revalidate or s-maxage, which implies
// proxy-revalidate for a shared cache (RFC 9111 §5.2.2.10); else its
// stale-if-error (RFC 5861 §4), or fallback when that is absent or
// malformed.
func StaleWindow(h Header, fallback time.Duration) (window time.Duration, ok bool) {
	cc := parseCacheControl(h)
	if cc.mustRevalidate || cc.proxyRevalidate || cc.sMaxAge >= 0 {
		return 0, false
	}
	if cc.staleIfError < 0 {
		return fallback, true
	}
	return cc.staleIfError, true
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
	req := &Request{}
	if err := fillFromHTTPRequest(req, hr, maxBody); err != nil {
		return nil, err
	}
	return req, nil
}

// fillFromHTTPRequest populates req from an inbound net/http request;
// shared by the allocating and pooled converters.
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
	req.Header = FromHTTPHeader(hr.Header)
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
	r.Header.eachStamped(r.Stamp, w.Header().Add)
	if r.ranged {
		w.Header().Set("Accept-Ranges", "bytes")
		w.Header().Set("Content-Range", string(r.appendContentRange(nil)))
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

// FromHTTPHeader converts a net/http header: its keys as they are, in sorted
// order, each with its values in order.
func FromHTTPHeader(h http.Header) Header {
	if len(h) == 0 {
		return Header{}
	}
	var small [16]string // the keys of a usual header sort on the stack
	keys := small[:0]
	for k := range h {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	var buf [512]byte // and a usual header encodes there
	b := wire.AppendUvarint(buf[:0], uint64(len(keys)))
	for _, k := range keys {
		b = wire.AppendUvarint(wire.AppendString(b, k), uint64(len(h[k])))
		for _, v := range h[k] {
			b = wire.AppendString(b, v)
		}
	}
	return Header{enc: string(b)}
}
