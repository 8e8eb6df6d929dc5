package httpmsg

import (
	"net/http"
	"net/url"
	"sync"
)

// Pooled requests for the proxy hot path. The proxy boundary (the client
// port, the offload executor, the benchmarks) allocates one Request per inbound
// call; pooling them removes the request struct and its URL from the
// steady-state allocation profile.
//
// Safety rule: a request may only be released when no pipeline script
// handler ran against it (pipeline.Trace.RanHandlers reports this). A
// script could stash its bound request wrapper in a global and alias a
// later request after reuse; requests that scripts touched are therefore
// left to the garbage collector.

var requestPool = sync.Pool{
	New: func() interface{} { return new(Request) },
}

// AcquireRequest returns a zeroed pooled request. Pair with Release on paths
// where no script saw the request; dropping it on the floor is also fine
// (the GC reclaims it).
func AcquireRequest() *Request { return requestPool.Get().(*Request) }

// Release zeroes the request and returns it to the pool. The caller must not
// touch the request afterwards.
func (r *Request) Release() {
	*r = Request{}
	requestPool.Put(r)
}

// Reuse is what a client connection keeps from one request to the next and
// lends each request it stages (SetReuse): the buffer the body of a cache hit
// is served in (ReplyBuffer), the Response the hit fills (Stored.Response),
// the 206 a Range narrows a reply into (ApplyRange), the buffer its cache
// key is written into (CacheKeyBytes), and the URL SiteURL built last,
// which a keep-alive client's next request mostly asks for again. The
// connection owns it and gives it to its next request once the response to
// the last is written. A connection of the client port keeps one, so a warm
// hit allocates no body, no Response, no key and not its site's nakika.js
// URL, and a warm range no 206.
//
// A lent Response goes back into the pipeline of its own request only: a
// flight's leader looks the cache up without its request, so what it shares
// with joiners is never lent, and the tiers store copies. A request a
// script saw may have handed what it was lent on, so its connection gives
// the Response up (Disown).
type Reuse struct {
	// Reply is the hit buffer, grown as needed. A body in it is borrowed,
	// read-only until Materialize copies it, so no script keeps a hold on
	// it. The connection may drop it between requests to bound what it
	// keeps.
	Reply []byte
	resp  *Response
	// partial is the 206 ApplyRange fills. Ranges narrow a reply after
	// every script ran, so no script ever holds it, and Disown keeps it.
	partial *Response
	key     []byte
	site    siteURL
}

// Disown gives up the Response u lent the last request: the next hit
// fills a new one. A connection calls it when a script saw the request.
func (u *Reuse) Disown() { u.resp = nil }

// siteURL is one SiteURL result: url is scheme + "://" + host + "/" + name,
// and scheme and host are its first ls and, after the "://", lh bytes.
type siteURL struct {
	url    string
	ls, lh int
}

// SetReuse lends r the connection's u for as long as r is served.
func (r *Request) SetReuse(u *Reuse) { r.reuse = u }

// ReplyBuffer returns n bytes for the body of a response served in reply to
// r: the Reply buffer of the Reuse SetReuse gave r, lent once, with borrowed
// set, or else a fresh one the response may own (a nil r gets a fresh one
// too).
func (r *Request) ReplyBuffer(n int) (b []byte, borrowed bool) {
	if r == nil || r.reuse == nil || r.replyLent {
		return make([]byte, n), false
	}
	r.replyLent = true
	if cap(r.reuse.Reply) < n {
		r.reuse.Reply = make([]byte, n)
	}
	return r.reuse.Reply[:n:n], true
}

// lentResponse returns the Response the Reuse SetReuse gave r lends, once,
// or else a fresh one the caller may keep (a nil r gets a fresh one too).
func (r *Request) lentResponse() *Response {
	if r == nil || r.reuse == nil || r.respLent {
		return new(Response)
	}
	r.respLent = true
	if r.reuse.resp == nil {
		r.reuse.resp = new(Response)
	}
	return r.reuse.resp
}

// lentPartial is lentResponse for the 206 ApplyRange makes in reply to r,
// from the Reuse's partial slot.
func (r *Request) lentPartial() *Response {
	if r == nil || r.reuse == nil || r.partialLent {
		return new(Response)
	}
	r.partialLent = true
	if r.reuse.partial == nil {
		r.reuse.partial = new(Response)
	}
	return r.reuse.partial
}

// SetURLCopy points the request at a copy of u stored inside the request's
// own allocation, so pooled requests do not allocate a url.URL per call.
func (r *Request) SetURLCopy(u *url.URL) {
	r.urlBuf = *u
	r.URL = &r.urlBuf
}

// AcquireFromHTTPRequest is FromHTTPRequest on a pooled request: the
// request struct and URL are reused; the header and the body are still
// copied out of hr. Release rules are as for AcquireRequest.
func AcquireFromHTTPRequest(hr *http.Request, maxBody int64) (*Request, error) {
	req := AcquireRequest()
	if err := fillFromHTTPRequest(req, hr, maxBody); err != nil {
		req.Release()
		return nil, err
	}
	return req, nil
}
