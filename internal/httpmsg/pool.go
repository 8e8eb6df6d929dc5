package httpmsg

import (
	"net/http"
	"net/url"
	"sync"
	"time"
)

// Pooled requests for the proxy hot path. The proxy boundary (the client
// port, the offload executor, the benchmarks) allocates one Request per inbound
// call; pooling them removes the request struct, its URL, and its header
// map from the steady-state allocation profile.
//
// Safety rule: a request may only be released when no pipeline script
// handler ran against it (pipeline.Trace.RanHandlers reports this). A
// script could stash its bound request wrapper in a global and alias a
// later request after reuse; requests that scripts touched are therefore
// left to the garbage collector.

var requestPool = sync.Pool{
	New: func() interface{} { return new(Request) },
}

// AcquireRequest returns a zeroed pooled request with a live header map and
// Received already stamped. Pair with Release on paths where no script saw
// the request; dropping it on the floor is also fine (the GC reclaims it).
func AcquireRequest() *Request {
	r := requestPool.Get().(*Request)
	if r.Header == nil {
		r.Header = make(http.Header, 8)
	}
	r.Received = time.Now()
	return r
}

// Release zeroes the request (keeping its header map's buckets) and returns
// it to the pool. The caller must not touch the request afterwards.
func (r *Request) Release() {
	hdr := r.Header
	clear(hdr)
	*r = Request{Header: hdr}
	requestPool.Put(r)
}

// SetURLCopy points the request at a copy of u stored inside the request's
// own allocation, so pooled requests do not allocate a url.URL per call.
func (r *Request) SetURLCopy(u *url.URL) {
	r.urlBuf = *u
	r.URL = &r.urlBuf
}

// AcquireFromHTTPRequest is FromHTTPRequest on a pooled request: the
// request struct, URL, and header map are reused; header contents and the
// body are still copied out of hr. Release rules are as for AcquireRequest.
func AcquireFromHTTPRequest(hr *http.Request, maxBody int64) (*Request, error) {
	req := AcquireRequest()
	if err := fillFromHTTPRequest(req, hr, maxBody); err != nil {
		req.Release()
		return nil, err
	}
	return req, nil
}

// copyHeaderInto deep-copies src into the reused dst map using one flat
// backing array for all value slices (same layout as cloneHeader).
func copyHeaderInto(dst, src http.Header) {
	n := 0
	for _, vs := range src {
		n += len(vs)
	}
	flat := make([]string, 0, n)
	for k, vs := range src {
		lo := len(flat)
		flat = append(flat, vs...)
		dst[k] = flat[lo:len(flat):len(flat)]
	}
}
