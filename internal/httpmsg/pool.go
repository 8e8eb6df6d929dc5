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

// SetReplyBuffer gives r a buffer to lend the body of a cache hit served in
// reply to it (ReplyBuffer): *buf, grown as needed. The caller owns *buf and
// gives it to its next request once the response to r is written; a body
// in it is borrowed, read-only until Materialize copies it, so no script
// keeps a hold on it. A connection of the client port keeps one such
// buffer, so a warm hit allocates no body.
func (r *Request) SetReplyBuffer(buf *[]byte) { r.replyBuf = buf }

// ReplyBuffer returns n bytes for the body of a response served in reply to
// r: the buffer SetReplyBuffer gave r, lent once, with borrowed set, or else
// a fresh one the response may own (a nil r gets a fresh one too).
func (r *Request) ReplyBuffer(n int) (b []byte, borrowed bool) {
	if r == nil || r.replyBuf == nil || r.replyLent {
		return make([]byte, n), false
	}
	r.replyLent = true
	if cap(*r.replyBuf) < n {
		*r.replyBuf = make([]byte, n)
	}
	return (*r.replyBuf)[:n:n], true
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
