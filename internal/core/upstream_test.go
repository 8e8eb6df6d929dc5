package core

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nakika/internal/httpmsg"
)

const (
	okReply       = "HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok"
	notFoundReply = "HTTP/1.1 404 Not Found\r\nContent-Length: 0\r\n\r\n"
)

// scriptedOrigin is a loopback origin scripted per request: reply returns
// the bytes to write back (none: no reply) and whether to close the
// connection after them, which the bytes need not say.
type scriptedOrigin struct {
	ln       net.Listener
	reply    func(req *http.Request) (string, bool)
	requests atomic.Int64 // requests read
	// closed receives once per connection the origin closed; it has room for
	// every connection a test opens, so serve never blocks on it.
	closed chan struct{}
	mu     sync.Mutex
	conns  []net.Conn
}

func newScriptedOrigin(t *testing.T, reply func(req *http.Request) (string, bool)) *scriptedOrigin {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	o := &scriptedOrigin{ln: ln, reply: reply, closed: make(chan struct{}, 256)}
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			o.mu.Lock()
			o.conns = append(o.conns, conn)
			o.mu.Unlock()
			go o.serve(conn)
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		o.mu.Lock()
		defer o.mu.Unlock()
		for _, conn := range o.conns {
			conn.Close()
		}
	})
	return o
}

func (o *scriptedOrigin) serve(conn net.Conn) {
	defer func() {
		conn.Close()
		o.closed <- struct{}{}
	}()
	br := bufio.NewReader(conn)
	for {
		req, err := http.ReadRequest(br)
		if err != nil {
			return
		}
		io.Copy(io.Discard, req.Body)
		o.requests.Add(1)
		out, closeAfter := o.reply(req)
		if _, err := io.WriteString(conn, out); err != nil || closeAfter {
			return
		}
	}
}

func (o *scriptedOrigin) url(path string) string { return "http://" + o.ln.Addr().String() + path }

// newFetcher is an HTTPFetcher whose idle connections close when the test
// ends.
func newFetcher(t *testing.T) *HTTPFetcher {
	f := &HTTPFetcher{}
	t.Cleanup(func() { closeIdle(f) })
	return f
}

func closeIdle(f *HTTPFetcher) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, list := range f.idle {
		for _, uc := range list {
			uc.timer.Stop()
			uc.conn.Close()
		}
	}
}

// waitIdleClosed waits until the origin has closed its end of f's one idle
// connection to it, and the fetcher's side can see so.
func waitIdleClosed(t *testing.T, f *HTTPFetcher, o *scriptedOrigin) {
	t.Helper()
	<-o.closed
	f.mu.Lock()
	list := f.idle[origin{addr: o.ln.Addr().String()}]
	if len(list) != 1 {
		f.mu.Unlock()
		t.Fatalf("%d idle connections, want 1", len(list))
	}
	conn := list[0].conn
	f.mu.Unlock()
	for deadline := time.Now().Add(5 * time.Second); stillOpen(conn); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the origin's close never reached the idle connection")
		}
	}
}

// fetchOK runs one Do that must answer 200 "ok".
func fetchOK(t *testing.T, f *HTTPFetcher, req *httpmsg.Request) {
	t.Helper()
	resp, err := f.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != 200 || string(resp.Body) != "ok" {
		t.Fatalf("%s %s: %d %q", req.Method, req.URL, resp.Status, resp.Body)
	}
}

// checkConns compares the fetcher's connection counts with a test's
// expectation.
func checkConns(t *testing.T, f *HTTPFetcher, dials, reuses, retries, idle int64) {
	t.Helper()
	got := [4]int64{f.dials.Load(), f.reuses.Load(), f.retries.Load(), f.idleConns.Load()}
	if want := [4]int64{dials, reuses, retries, idle}; got != want {
		t.Errorf("dials, reuses, retries, idle = %v, want %v", got, want)
	}
}

// TestUpstreamRetriesAfterOriginClosedIdle: the origin closes a connection
// the fetcher holds idle; the next GET finds it dead before any reply, is
// sent once more on a fresh connection, and succeeds.
func TestUpstreamRetriesAfterOriginClosedIdle(t *testing.T) {
	o := newScriptedOrigin(t, func(*http.Request) (string, bool) { return okReply, true })
	f := newFetcher(t)
	req := httpmsg.MustRequest("GET", o.url("/page"))
	fetchOK(t, f, req)
	waitIdleClosed(t, f, o)
	fetchOK(t, f, req)
	checkConns(t, f, 2, 1, 1, 1)
	if n := o.requests.Load(); n != 2 {
		t.Errorf("origin read %d requests, want 2", n)
	}
}

// TestUpstreamNeverReplaysPOSTBlind: a POST goes on an idle connection only
// when a peek finds it open, and is never sent twice. After the origin
// closed the idle connection, the POST goes on a fresh one; when the origin
// drops a connection after reading the POST, the POST fails, sent once.
func TestUpstreamNeverReplaysPOSTBlind(t *testing.T) {
	var posts atomic.Int64
	o := newScriptedOrigin(t, func(req *http.Request) (string, bool) {
		if req.Method != http.MethodPost {
			return okReply, true
		}
		posts.Add(1)
		if req.URL.Path == "/drop" {
			return "", true
		}
		return okReply, false
	})
	f := newFetcher(t)
	fetchOK(t, f, httpmsg.MustRequest("GET", o.url("/page")))
	waitIdleClosed(t, f, o)
	form := httpmsg.MustRequest("POST", o.url("/form"))
	form.Body = []byte("a=1")
	fetchOK(t, f, form)
	checkConns(t, f, 2, 0, 0, 1)

	drop := httpmsg.MustRequest("POST", o.url("/drop"))
	drop.Body = []byte("a=2")
	if resp, err := f.Do(drop); err == nil {
		t.Fatalf("a POST the origin dropped unanswered came back %d", resp.Status)
	}
	if n := posts.Load(); n != 2 {
		t.Errorf("origin read %d POSTs, want 2: none is sent twice", n)
	}
	if n := f.retries.Load(); n != 0 {
		t.Errorf("%d retries, want 0", n)
	}
}

// TestUpstreamPoolsOnlyKeepAlive: a reply that says Connection: close, or
// an HTTP/1.0 reply without keep-alive, does not return its connection to
// the pool; an HTTP/1.1 reply, or an HTTP/1.0 one with keep-alive, does.
func TestUpstreamPoolsOnlyKeepAlive(t *testing.T) {
	for _, tc := range []struct {
		reply  string
		pooled bool
	}{
		{okReply, true},
		{"HTTP/1.1 200 OK\r\nConnection: close\r\nContent-Length: 2\r\n\r\nok", false},
		{"HTTP/1.0 200 OK\r\nContent-Length: 2\r\n\r\nok", false},
		{"HTTP/1.0 200 OK\r\nConnection: keep-alive\r\nContent-Length: 2\r\n\r\nok", true},
	} {
		o := newScriptedOrigin(t, func(*http.Request) (string, bool) { return tc.reply, false })
		f := newFetcher(t)
		req := httpmsg.MustRequest("GET", o.url("/page"))
		fetchOK(t, f, req)
		fetchOK(t, f, req)
		if tc.pooled {
			checkConns(t, f, 1, 1, 0, 1)
		} else {
			checkConns(t, f, 2, 0, 0, 0)
		}
	}
}

// TestUpstreamStreamPooledOnlyAtEnd: a streamed body read to its end hands
// its connection back to the pool; one closed early closes it.
func TestUpstreamStreamPooledOnlyAtEnd(t *testing.T) {
	body := strings.Repeat("0123456789abcdef", 4<<10)
	o := newScriptedOrigin(t, func(*http.Request) (string, bool) {
		return "HTTP/1.1 200 OK\r\nContent-Length: " + strconv.Itoa(len(body)) + "\r\n\r\n" + body, false
	})
	f := newFetcher(t)
	req := httpmsg.MustRequest("GET", o.url("/big"))
	head, rc, err := f.DoStream(req)
	if err != nil || head.Status != 200 || head.Length != int64(len(body)) {
		t.Fatalf("DoStream: %+v %v", head, err)
	}
	if _, err := io.ReadFull(rc, make([]byte, 10)); err != nil {
		t.Fatal(err)
	}
	rc.Close()
	checkConns(t, f, 1, 0, 0, 0)

	for i := 0; i < 2; i++ {
		_, rc, err := f.DoStream(req)
		if err != nil {
			t.Fatal(err)
		}
		got, err := io.ReadAll(rc)
		rc.Close()
		if err != nil || string(got) != body {
			t.Fatalf("streamed %d bytes of %d: %v", len(got), len(body), err)
		}
	}
	checkConns(t, f, 2, 1, 0, 1)
}

// newUpstreamNode is a node on the default upstream, an HTTPFetcher, that
// fetches its administrative walls from o, which has none, so every fetch
// stays on loopback.
func newUpstreamNode(t *testing.T, o *scriptedOrigin) *Node {
	t.Helper()
	n, err := NewNode(Config{Name: "edge-upstream", ClientWallURL: o.url("/clientwall.js"), ServerWallURL: o.url("/serverwall.js")})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { closeIdle(n.cfg.Upstream.(*HTTPFetcher)) })
	return n
}

// TestUpstreamMalformedHeadIs502: a reply whose head does not parse is a
// 502 to the client, and the node goes on serving the origin.
func TestUpstreamMalformedHeadIs502(t *testing.T) {
	o := newScriptedOrigin(t, func(req *http.Request) (string, bool) {
		switch req.URL.Path {
		case "/bad":
			return "HTTP/1.1 2x0 OK\r\nContent-Length: 0\r\n\r\n", false
		case "/ok":
			return okReply, false
		}
		return notFoundReply, false
	})
	n := newUpstreamNode(t, o)
	for _, tc := range []struct {
		path   string
		status int
	}{{"/bad", 502}, {"/ok", 200}, {"/bad", 502}, {"/ok", 200}} {
		resp, _, err := n.Handle(httpmsg.MustRequest("GET", o.url(tc.path)))
		if err != nil || resp.Status != tc.status {
			t.Fatalf("GET %s: %v %v, want %d", tc.path, resp, err, tc.status)
		}
	}
}

// TestUpstreamIdleCapUnderConcurrentMisses: 32 concurrent misses to one
// origin open 32 connections; when they end, the origin's idle list keeps
// maxIdlePerOrigin of them and the rest close.
func TestUpstreamIdleCapUnderConcurrentMisses(t *testing.T) {
	const misses = 32
	var arrived atomic.Int64
	all := make(chan struct{})
	o := newScriptedOrigin(t, func(*http.Request) (string, bool) {
		if arrived.Add(1) == misses {
			close(all)
		}
		select {
		case <-all:
		case <-time.After(10 * time.Second):
		}
		return okReply, false
	})
	f := newFetcher(t)
	errs := make(chan error, misses)
	var wg sync.WaitGroup
	for i := 0; i < misses; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := f.Do(httpmsg.MustRequest("GET", o.url("/page")))
			if err == nil && string(resp.Body) != "ok" {
				err = fmt.Errorf("body %q", resp.Body)
			}
			errs <- err
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	checkConns(t, f, misses, 0, 0, maxIdlePerOrigin)
	f.mu.Lock()
	idle := len(f.idle[origin{addr: o.ln.Addr().String()}])
	f.mu.Unlock()
	if idle != maxIdlePerOrigin {
		t.Errorf("idle list holds %d connections, want %d", idle, maxIdlePerOrigin)
	}
	for i := 0; i < misses-maxIdlePerOrigin; i++ {
		select {
		case <-o.closed:
		case <-time.After(5 * time.Second):
			t.Fatalf("the origin saw %d of the %d connections past the cap close", i, misses-maxIdlePerOrigin)
		}
	}
}

// TestUpstreamHTTPS: https runs the same codec over crypto/tls, and keeps
// the connection alive.
func TestUpstreamHTTPS(t *testing.T) {
	srv := httptest.NewTLSServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ok")
	}))
	defer srv.Close()
	f := newFetcher(t)
	f.tlsConfig = srv.Client().Transport.(*http.Transport).TLSClientConfig
	req := httpmsg.MustRequest("GET", srv.URL+"/secure")
	fetchOK(t, f, req)
	fetchOK(t, f, req)
	checkConns(t, f, 1, 1, 0, 1)
}

// TestOriginRedirectRelayed: a 3xx from the origin reaches the client as
// the origin sent it. Nothing follows its Location, on the origin's host or
// another: the origin sees one request for each redirect, and the other
// host none.
func TestOriginRedirectRelayed(t *testing.T) {
	var elsewhere atomic.Int64
	other := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		elsewhere.Add(1)
		io.WriteString(w, "elsewhere")
	}))
	defer other.Close()
	var mu sync.Mutex
	seen := map[string]int{}
	o := newScriptedOrigin(t, func(req *http.Request) (string, bool) {
		mu.Lock()
		seen[req.URL.Path]++
		mu.Unlock()
		switch req.URL.Path {
		case "/a":
			return "HTTP/1.1 302 Found\r\nLocation: /b\r\nContent-Length: 0\r\n\r\n", false
		case "/b":
			return "HTTP/1.1 200 OK\r\nCache-Control: max-age=60\r\nContent-Length: 1\r\n\r\nb", false
		case "/x":
			return "HTTP/1.1 302 Found\r\nLocation: " + other.URL + "/y\r\nContent-Length: 0\r\n\r\n", false
		}
		return notFoundReply, false
	})
	n := newUpstreamNode(t, o)
	for _, tc := range []struct{ path, location string }{{"/a", "/b"}, {"/x", other.URL + "/y"}} {
		resp, _, err := n.Handle(httpmsg.MustRequest("GET", o.url(tc.path)))
		if err != nil {
			t.Fatal(err)
		}
		if resp.Status != http.StatusFound || resp.Header.Get("Location") != tc.location {
			t.Errorf("GET %s: %d, Location %q; want 302, %q", tc.path, resp.Status, resp.Header.Get("Location"), tc.location)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if seen["/a"] != 1 || seen["/x"] != 1 || seen["/b"] != 0 {
		t.Errorf("origin read /a %d, /x %d, /b %d times; want 1, 1, 0", seen["/a"], seen["/x"], seen["/b"])
	}
	if n := elsewhere.Load(); n != 0 {
		t.Errorf("the other host was fetched %d times, want 0", n)
	}
}

// serveCanned answers every request on ln with reply. It reads requests
// without allocating: it scans each head to its blank line.
func serveCanned(ln net.Listener, reply []byte) {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		go func() {
			defer conn.Close()
			br := bufio.NewReader(conn)
			for {
				for {
					line, err := br.ReadSlice('\n')
					if err != nil {
						return
					}
					if len(line) <= 2 {
						break
					}
				}
				if _, err := conn.Write(reply); err != nil {
					return
				}
			}
		}()
	}
}

// TestUpstreamFetchAllocCeiling gates the allocations of one keep-alive
// origin fetch, canned origin included: through Do, and through DoStream
// with its body read to the end into a reused buffer.
func TestUpstreamFetchAllocCeiling(t *testing.T) {
	// Measured with go1.24: Do 6 (7 under the race detector), DoStream 6.
	const doCeiling, streamCeiling = 7, 6
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	body := strings.Repeat("<p>origin page</p>", 128)
	go serveCanned(ln, []byte("HTTP/1.1 200 OK\r\nContent-Type: text/html\r\nCache-Control: max-age=60\r\nContent-Length: "+
		strconv.Itoa(len(body))+"\r\n\r\n"+body))
	f := newFetcher(t)
	req := httpmsg.MustRequest("GET", "http://"+ln.Addr().String()+"/page.html")
	req.Header.Set("Accept", "*/*")
	buf := make([]byte, 4<<10)
	do := func() {
		resp, err := f.Do(req)
		if err != nil || len(resp.Body) != len(body) {
			t.Fatalf("Do: %v", err)
		}
	}
	stream := func() {
		_, rc, err := f.DoStream(req)
		for err == nil {
			_, err = rc.Read(buf)
		}
		if err != io.EOF {
			t.Fatalf("DoStream: %v", err)
		}
		rc.Close()
	}
	for i := 0; i < 20; i++ {
		do()
		stream()
	}
	doAllocs, streamAllocs := testing.AllocsPerRun(500, do), testing.AllocsPerRun(500, stream)
	t.Logf("allocations per keep-alive origin fetch: Do %.0f, DoStream %.0f", doAllocs, streamAllocs)
	if doAllocs > doCeiling {
		t.Errorf("Do allocates %.0f times per fetch, ceiling %d", doAllocs, doCeiling)
	}
	if streamAllocs > streamCeiling {
		t.Errorf("DoStream allocates %.0f times per fetch, ceiling %d", streamAllocs, streamCeiling)
	}
	if n := f.dials.Load(); n != 1 {
		t.Errorf("%d connections dialed, want 1: every fetch reuses the first", n)
	}
}
