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
// Safety rule: a request goes back to the pool once its response is
// written, script handlers or not. A script's Request and Response stand
// for a message only while its handler runs: their natives throw and their
// data properties read undefined after it (vocab.ClearMessages). What a
// script can keep of a request past its run is the strings it read, which
// are immutable, and a ByteArray over a body, which is read into a buffer
// of its own for each request and never lent.

var requestPool = sync.Pool{
	New: func() interface{} { return new(Request) },
}

// AcquireRequest returns a zeroed pooled request. Pair with Release once
// its response is written; dropping it on the floor is also fine (the GC
// reclaims it).
func AcquireRequest() *Request {
	r := requestPool.Get().(*Request)
	if poison {
		*r = Request{}
	}
	return r
}

// Release zeroes the request and returns it to the pool. The caller must not
// touch the request afterwards. Built with the nakika_poison tag, Release
// overwrites the request instead, and the Response its connection lent it,
// so whatever still reads them reads garbage (AcquireRequest zeroes it).
func (r *Request) Release() {
	if poison {
		r.poison()
	} else {
		*r = Request{}
	}
	requestPool.Put(r)
}

// poison overwrites r and the Response it was lent.
func (r *Request) poison() {
	if r.respLent && r.reuse != nil && r.reuse.resp != nil {
		*r.reuse.resp = Response{Status: 599, Header: poisonHeader}
	}
	*r = Request{Method: "POISONED", URL: &poisonURL, Header: poisonHeader, ClientIP: "poisoned"}
}

// poisonURL and poisonHeader are what poison leaves in a request and a
// response.
var (
	poisonURL    = url.URL{Scheme: "http", Host: "poisoned.invalid", Path: "/poisoned"}
	poisonHeader = func() (h Header) {
		h.Set("Poisoned", "given back")
		return h
	}()
)

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
// with joiners is never lent, and the tiers store copies. A script bound to
// it holds it only while its handler runs.
type Reuse struct {
	// Reply is the hit buffer, grown as needed. A body in it is borrowed,
	// read-only until Materialize copies it, so no script keeps a hold on
	// it. The connection may drop it between requests to bound what it
	// keeps.
	Reply []byte
	resp  *Response
	// partial is the 206 ApplyRange fills. Ranges narrow a reply after
	// every script ran, so no script ever holds it.
	partial *Response
	key     []byte
	site    siteURL
}

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

// ResponseTo returns a response with status in reply to req: the Response
// req's Reuse lends (see Reuse), once, or else a fresh one, as NewResponse
// makes (a nil req gets a fresh one too).
func ResponseTo(req *Request, status int) *Response {
	resp := req.lentResponse()
	*resp = Response{Status: status}
	return resp
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
