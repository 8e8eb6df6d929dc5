package httpmsg

import (
	"bufio"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestNewRequest(t *testing.T) {
	r, err := NewRequest("GET", "http://med.nyu.edu/simm/module1.html?student=42")
	if err != nil {
		t.Fatal(err)
	}
	if r.Host() != "med.nyu.edu" {
		t.Errorf("Host = %q", r.Host())
	}
	if r.Path() != "/simm/module1.html" {
		t.Errorf("Path = %q", r.Path())
	}
	if r.Query("student") != "42" {
		t.Errorf("Query(student) = %q", r.Query("student"))
	}
	if r.SiteKey() != "med.nyu.edu" {
		t.Errorf("SiteKey = %q", r.SiteKey())
	}
}

func TestNewRequestDefaults(t *testing.T) {
	r, err := NewRequest("GET", "example.org/path")
	if err != nil {
		t.Fatal(err)
	}
	if r.URL.Scheme != "http" {
		t.Errorf("scheme = %q, want http", r.URL.Scheme)
	}
	if r.Path() == "" {
		t.Error("Path should never be empty")
	}
}

func TestNewRequestInvalid(t *testing.T) {
	if _, err := NewRequest("GET", "http://bad url with spaces\x7f"); err == nil {
		t.Error("expected error for invalid URL")
	}
}

func TestCacheKey(t *testing.T) {
	a := MustRequest("GET", "http://example.org/a#frag")
	b := MustRequest("GET", "http://example.org/a")
	if a.CacheKey() != b.CacheKey() {
		t.Errorf("fragment should not affect cache key: %q vs %q", a.CacheKey(), b.CacheKey())
	}
	c := MustRequest("POST", "http://example.org/a")
	if a.CacheKey() == c.CacheKey() {
		t.Error("method should affect cache key")
	}
	d := MustRequest("GET", "http://example.org/a?x=1")
	if a.CacheKey() == d.CacheKey() {
		t.Error("query should affect cache key")
	}
}

func TestRequestClone(t *testing.T) {
	r := MustRequest("POST", "http://example.org/submit")
	r.Header.Set("X-Test", "1")
	r.Body = []byte("payload")
	r.ClientIP = "10.0.0.1"
	cp := r.Clone()
	cp.Header.Set("X-Test", "2")
	cp.Body[0] = 'X'
	cp.URL.Path = "/other"
	if r.Header.Get("X-Test") != "1" {
		t.Error("clone header mutation leaked")
	}
	if string(r.Body) != "payload" {
		t.Error("clone body mutation leaked")
	}
	if r.URL.Path != "/submit" {
		t.Error("clone URL mutation leaked")
	}
}

func TestSetURLMarksRedirect(t *testing.T) {
	r := MustRequest("GET", "http://a.example.org/x")
	if err := r.SetURL("http://a.example.org/x"); err != nil {
		t.Fatal(err)
	}
	if r.Redirected {
		t.Error("same URL should not mark redirect")
	}
	if err := r.SetURL("http://b.example.org/y"); err != nil {
		t.Fatal(err)
	}
	if !r.Redirected {
		t.Error("changed URL should mark redirect")
	}
	if err := r.SetURL("://bad"); err == nil {
		t.Error("expected error for invalid URL")
	}
}

func TestTerminate(t *testing.T) {
	r := MustRequest("GET", "http://content.nejm.org/cgi/reprint/1.pdf")
	resp := r.Terminate(401)
	if resp.Status != 401 {
		t.Errorf("status = %d", resp.Status)
	}
	if r.Terminated() != resp {
		t.Error("Terminated() should return the recorded response")
	}
	if !strings.Contains(string(resp.Body), "401") {
		t.Error("body should mention the status code")
	}
	r.ClearTermination()
	if r.Terminated() != nil {
		t.Error("ClearTermination should remove the response")
	}
	// Invalid status codes map to 500.
	if got := r.Terminate(9999).Status; got != 500 {
		t.Errorf("invalid status mapped to %d, want 500", got)
	}
}

func TestCookies(t *testing.T) {
	r := MustRequest("GET", "http://example.org/")
	if _, ok := r.Cookie("session"); ok {
		t.Error("unexpected cookie")
	}
	r.Header.Set("Cookie", "session=abc123; student=42")
	if v, ok := r.Cookie("session"); !ok || v != "abc123" {
		t.Errorf("session cookie = %q, %v", v, ok)
	}
	if v, ok := r.Cookie("student"); !ok || v != "42" {
		t.Errorf("student cookie = %q, %v", v, ok)
	}
}

func TestResponseBodyAndContentType(t *testing.T) {
	r := NewResponse(200)
	r.Header.Set("Content-Type", "text/html; charset=utf-8")
	r.SetBodyString("<html></html>")
	if r.ContentType() != "text/html" {
		t.Errorf("ContentType = %q", r.ContentType())
	}
	if len(r.Body) != 13 {
		t.Errorf("body length = %d", len(r.Body))
	}
	if r.Header.Get("Content-Length") != "13" {
		t.Errorf("Content-Length = %q", r.Header.Get("Content-Length"))
	}
}

// TestResponseClone pins the clone contract: own headers, the same body
// bytes (read-only until Materialize), and no write that reaches the
// original — not through Materialize's copy, not through append, not through
// a range of the clone.
func TestResponseClone(t *testing.T) {
	r := NewTextResponse(200, "hello")
	r.Body = append(make([]byte, 0, 64), r.Body...) // spare capacity an append could reach
	r.Via = "node-1"
	cp := r.Clone()
	cp.Header.Set("X-New", "1")
	if r.Header.Get("X-New") != "" {
		t.Error("clone header mutation leaked")
	}
	if cp.Via != "node-1" {
		t.Error("Via not copied")
	}
	if &cp.Body[0] != &r.Body[0] || cap(cp.Body) != len(r.Body) {
		t.Errorf("a clone's body is the original's bytes, capacity-limited; cap %d", cap(cp.Body))
	}

	// append to a clone copies out instead of writing into r's spare capacity.
	grown := append(cp.Body, '!')
	if r.Body[:len(grown)][len(r.Body)] != 0 {
		t.Error("append to a clone wrote into the original's array")
	}

	// A range of a shared response is still shared: Materialize copies it.
	get := MustRequest("GET", "http://example.org/")
	get.Header.Set("Range", "bytes=1-3")
	ranged := ApplyRange(get, r.Clone())
	if string(ranged.Body) != "ell" || cap(ranged.Body) != len(ranged.Body) {
		t.Fatalf("ranged body %q cap %d", ranged.Body, cap(ranged.Body))
	}
	for _, c := range []*Response{cp, ranged} {
		if err := c.Materialize(); err != nil {
			t.Fatal(err)
		}
		c.Body[0] = 'X'
	}
	if string(r.Body) != "hello" {
		t.Errorf("a write after Materialize leaked: %q", r.Body)
	}
	// A body the response owns is not copied again.
	owned := &cp.Body[0]
	if err := cp.Materialize(); err != nil || &cp.Body[0] != owned {
		t.Error("Materialize copied a body the response already owns")
	}
}

func TestCacheable(t *testing.T) {
	cases := []struct {
		status int
		cc     string
		want   bool
	}{
		{200, "", true},
		{200, "max-age=60", true},
		{200, "no-store", false},
		{200, "private", false},
		{200, "no-cache", false},
		{404, "", true},
		{500, "", false},
		{302, "", false},
	}
	for _, c := range cases {
		r := NewResponse(c.status)
		if c.cc != "" {
			r.Header.Set("Cache-Control", c.cc)
		}
		if got := r.Cacheable(); got != c.want {
			t.Errorf("Cacheable(status=%d, cc=%q) = %v, want %v", c.status, c.cc, got, c.want)
		}
	}
}

func TestFreshFor(t *testing.T) {
	now := time.Now()
	r := NewResponse(200)
	if d, ok := FreshFor(r.Header, now); d != 0 || ok {
		t.Errorf("no headers: FreshFor = %v, %v; want no freshness information", d, ok)
	}
	r.SetMaxAge(300)
	if d, ok := FreshFor(r.Header, now); d != 300*time.Second || !ok {
		t.Errorf("max-age freshness = %v, %v", d, ok)
	}
	r2 := NewResponse(200)
	r2.SetAbsoluteExpiry(now.Add(90 * time.Second))
	if fresh, ok := FreshFor(r2.Header, now); !ok || fresh < 85*time.Second || fresh > 95*time.Second {
		t.Errorf("Expires freshness = %v, %v", fresh, ok)
	}
	r3 := NewResponse(200)
	r3.SetAbsoluteExpiry(now.Add(-10 * time.Second))
	if d, ok := FreshFor(r3.Header, now); d > 0 || !ok {
		t.Errorf("past Expires: FreshFor = %v, %v; want stale on arrival, not \"no information\"", d, ok)
	}
	r4 := NewResponse(200)
	r4.Header.Set("Cache-Control", "public, s-maxage=120")
	if d, ok := FreshFor(r4.Header, now); d != 120*time.Second || !ok {
		t.Errorf("s-maxage freshness = %v, %v", d, ok)
	}
}

// TestSharedCachePolicy is the table for the one policy function pair:
// Storable and FreshFor read the same directive list, token by token and
// without regard to case. known separates "the headers say nothing" (the
// cache applies its default TTL) from "the headers say it is stale already"
// (fresh <= 0: the cache must not).
func TestSharedCachePolicy(t *testing.T) {
	now := time.Date(2026, 6, 1, 0, 0, 0, 0, time.UTC)
	for _, c := range []struct {
		name     string
		status   int
		header   http.Header
		storable bool
		fresh    time.Duration
		known    bool
	}{
		{"no headers", 200, http.Header{}, true, 0, false},
		{"max-age", 200, http.Header{"Cache-Control": {"max-age=60"}}, true, time.Minute, true},
		{"s-maxage wins when first", 200, http.Header{"Cache-Control": {"s-maxage=10, max-age=60"}}, true, 10 * time.Second, true},
		{"s-maxage wins when last", 200, http.Header{"Cache-Control": {"max-age=60, s-maxage=10"}}, true, 10 * time.Second, true},
		{"directive names in any case", 200, http.Header{"Cache-Control": {"Public, Max-Age=60"}}, true, time.Minute, true},
		{"no-store in any case", 200, http.Header{"Cache-Control": {"NO-STORE"}}, false, 0, false},
		{"private", 200, http.Header{"Cache-Control": {"max-age=60, private"}}, false, time.Minute, true},
		{"no-cache", 200, http.Header{"Cache-Control": {"no-cache"}}, false, 0, false},
		{"a token that contains private is not private", 200, http.Header{"Cache-Control": {"max-age=60, x-unprivate=1"}}, true, time.Minute, true},
		{"a second header line counts", 200, http.Header{"Cache-Control": {"max-age=60", "no-store"}}, false, time.Minute, true},
		{"unparsable max-age is ignored", 200, http.Header{"Cache-Control": {"max-age=soon"}}, true, 0, false},
		{"negative max-age is ignored", 200, http.Header{"Cache-Control": {"max-age=-5"}, "Expires": {now.Add(90 * time.Second).Format(http.TimeFormat)}}, true, 90 * time.Second, true},
		{"max-age beats Expires", 200, http.Header{"Cache-Control": {"max-age=60"}, "Expires": {now.Add(time.Hour).Format(http.TimeFormat)}}, true, time.Minute, true},
		{"Expires ahead", 200, http.Header{"Expires": {now.Add(90 * time.Second).Format(http.TimeFormat)}}, true, 90 * time.Second, true},
		{"max-age=0 is stale on arrival", 200, http.Header{"Cache-Control": {"max-age=0"}}, true, 0, true},
		{"s-maxage=0 beats max-age", 200, http.Header{"Cache-Control": {"max-age=60, s-maxage=0"}}, true, 0, true},
		{"Expires in the past", 200, http.Header{"Expires": {now.Add(-time.Hour).Format(http.TimeFormat)}}, true, -time.Hour, true},
		{"Expires now", 200, http.Header{"Expires": {now.Format(http.TimeFormat)}}, true, 0, true},
		{"Expires unparsable is in the past", 200, http.Header{"Expires": {"0"}}, true, 0, true},
		{"301", 301, http.Header{}, true, 0, false},
		{"404", 404, http.Header{}, true, 0, false},
		{"404 no-store", 404, http.Header{"Cache-Control": {"no-store"}}, false, 0, false},
		{"206", 206, http.Header{"Cache-Control": {"max-age=60"}}, false, time.Minute, true},
		{"304", 304, http.Header{"Cache-Control": {"max-age=60"}}, false, time.Minute, true},
		{"500", 500, http.Header{}, false, 0, false},
	} {
		if got := Storable(c.status, c.header); got != c.storable {
			t.Errorf("%s: Storable = %v, want %v", c.name, got, c.storable)
		}
		if got, known := FreshFor(c.header, now); got != c.fresh || known != c.known {
			t.Errorf("%s: FreshFor = %v, %v; want %v, %v", c.name, got, known, c.fresh, c.known)
		}
		r := &Response{Status: c.status, Header: c.header}
		if r.Cacheable() != c.storable {
			t.Errorf("%s: Cacheable disagrees with Storable", c.name)
		}
	}
}

func TestFromHTTPRequest(t *testing.T) {
	hr := httptest.NewRequest("POST", "http://site.example.org/form", strings.NewReader("a=1&b=2"))
	hr.RemoteAddr = "192.168.1.50:54321"
	hr.Header.Set("User-Agent", "test-agent")
	req, err := FromHTTPRequest(hr, 0)
	if err != nil {
		t.Fatal(err)
	}
	if req.ClientIP != "192.168.1.50" {
		t.Errorf("ClientIP = %q", req.ClientIP)
	}
	if string(req.Body) != "a=1&b=2" {
		t.Errorf("Body = %q", req.Body)
	}
	if req.Header.Get("User-Agent") != "test-agent" {
		t.Error("header lost")
	}
}

// allocated returns the bytes f allocates on the heap, with the collector
// held off so nothing is swept from under the count.
func allocated(f func()) uint64 {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// unreadBody fails the test if staging reads from it.
type unreadBody struct{ t *testing.T }

func (b unreadBody) Read([]byte) (int, error) {
	b.t.Error("the body was read; a declared length over the limit must be refused first")
	return 0, io.EOF
}

// cutBody sends its bytes and then fails, as a server's body reader does
// when the client closes before the declared length has arrived.
type cutBody struct{ r io.Reader }

func (b cutBody) Read(p []byte) (int, error) {
	if n, _ := b.r.Read(p); n > 0 {
		return n, nil
	}
	return 0, io.ErrUnexpectedEOF
}

func TestFromHTTPRequestBodyLimit(t *testing.T) {
	const limit = 100
	for _, c := range []struct {
		name    string
		body    io.Reader
		length  int64 // the declared Content-Length; -1 for a chunked body
		max     int64
		want    string // the accepted body; ignored when wantErr
		wantErr bool
		// maxAlloc bounds the bytes one staging may allocate (0: unchecked).
		maxAlloc uint64
	}{
		{name: "declared over the limit", body: strings.NewReader(strings.Repeat("x", 1000)), length: 1000, max: limit, wantErr: true},
		{name: "small", body: strings.NewReader("small"), length: 5, max: limit, want: "small"},
		{name: "exactly the limit", body: strings.NewReader(strings.Repeat("x", limit)), length: limit, max: limit, want: strings.Repeat("x", limit)},
		{name: "exactly the limit, chunked", body: strings.NewReader(strings.Repeat("y", limit)), length: -1, max: limit, want: strings.Repeat("y", limit)},
		{name: "declared one over the limit is not read", body: unreadBody{t}, length: limit + 1, max: limit, wantErr: true},
		{name: "chunked over the limit", body: strings.NewReader(strings.Repeat("x", limit+1)), length: -1, max: limit, wantErr: true},
		{name: "declared 8 MiB, sends 10 bytes and closes", body: cutBody{strings.NewReader("0123456789")}, length: 8 << 20, max: 8 << 20, wantErr: true, maxAlloc: 4 << 10},
		{name: "unlimited", body: strings.NewReader(strings.Repeat("z", 3*limit)), length: -1, max: 0, want: strings.Repeat("z", 3*limit)},
	} {
		hr := httptest.NewRequest("POST", "http://site.example.org/upload", nil)
		hr.Body, hr.ContentLength = io.NopCloser(c.body), c.length
		var req *Request
		var err error
		n := allocated(func() { req, err = FromHTTPRequest(hr, c.max) })
		switch {
		case c.wantErr && err == nil:
			t.Errorf("%s: accepted a %d-byte body", c.name, len(req.Body))
		case !c.wantErr && err != nil:
			t.Errorf("%s: %v", c.name, err)
		case !c.wantErr && string(req.Body) != c.want:
			t.Errorf("%s: body %q, want %q", c.name, req.Body, c.want)
		}
		if c.maxAlloc > 0 && n > c.maxAlloc {
			t.Errorf("%s: staging allocated %d bytes, want at most %d", c.name, n, c.maxAlloc)
		}
	}
}

// TestBodylessStagingAllocatesNoBuffer: a request without a body — a GET,
// which a server hands http.NoBody, or a POST with Content-Length: 0 —
// stages with no read buffer at all.
func TestBodylessStagingAllocatesNoBuffer(t *testing.T) {
	for _, raw := range []string{
		"GET /page.html HTTP/1.1\r\nHost: site.example.org\r\nUser-Agent: t\r\n\r\n",
		"POST /form HTTP/1.1\r\nHost: site.example.org\r\nContent-Length: 0\r\n\r\n",
	} {
		hr, err := http.ReadRequest(bufio.NewReader(strings.NewReader(raw)))
		if err != nil {
			t.Fatal(err)
		}
		hr.RemoteAddr = "192.0.2.1:40000"
		const rounds = 100
		var body []byte
		per := allocated(func() {
			for i := 0; i < rounds; i++ {
				req, err := AcquireFromHTTPRequest(hr, 8<<20)
				if err != nil {
					t.Fatal(err)
				}
				body = req.Body
				req.Release()
			}
		}) / rounds
		if per >= 512 {
			t.Errorf("%s: staging a bodyless request allocates %d bytes, want under 512", hr.Method, per)
		}
		if body != nil {
			t.Errorf("%s: staged body %v, want nil", hr.Method, body)
		}
	}
}

func TestWriteTo(t *testing.T) {
	resp := NewHTMLResponse(201, "<p>created</p>")
	resp.Header.Set("X-Custom", "v")
	rec := httptest.NewRecorder()
	if err := resp.WriteTo(rec); err != nil {
		t.Fatal(err)
	}
	if rec.Code != 201 {
		t.Errorf("code = %d", rec.Code)
	}
	if rec.Header().Get("X-Custom") != "v" {
		t.Error("custom header lost")
	}
	if rec.Body.String() != "<p>created</p>" {
		t.Errorf("body = %q", rec.Body.String())
	}
}

func TestPropertyCacheKeyDeterministic(t *testing.T) {
	f := func(path string) bool {
		clean := make([]rune, 0, len(path))
		for _, r := range path {
			if r > 32 && r < 127 && r != '#' && r != '?' && r != '%' {
				clean = append(clean, r)
			}
		}
		p := "/" + string(clean)
		a, err1 := NewRequest("GET", "http://example.org"+p)
		b, err2 := NewRequest("GET", "http://example.org"+p)
		if err1 != nil || err2 != nil {
			return true // skip unparsable paths
		}
		return a.CacheKey() == b.CacheKey()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestPropertyCloneIndependence: whatever a holder of a clone does by the
// contract — append to it, or Materialize and then overwrite it — the
// original's bytes, spare capacity included, are unchanged.
func TestPropertyCloneIndependence(t *testing.T) {
	f := func(body, extra []byte) bool {
		r := NewResponse(200)
		r.SetBody(append(make([]byte, 0, len(body)+len(extra)), body...))
		spare := r.Body[:cap(r.Body)]
		for i := len(body); i < len(spare); i++ {
			spare[i] = 0xAA
		}
		before := string(spare)

		appended := r.Clone()
		appended.Body = append(appended.Body, extra...)
		written := r.Clone()
		if err := written.Materialize(); err != nil {
			return false
		}
		for i := range written.Body {
			written.Body[i] = 0
		}
		return string(spare) == before && string(r.Body) == string(body) &&
			string(appended.Body) == string(body)+string(extra)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
