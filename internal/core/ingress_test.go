package core

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"nakika/internal/httpmsg"
)

// serveLoopback runs n.Serve on a loopback listener until the test ends.
func serveLoopback(t *testing.T, n *Node) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- n.Serve(ln) }()
	t.Cleanup(func() {
		n.Drain(context.Background())
		if err := <-done; err != nil {
			t.Errorf("Serve: %v", err)
		}
	})
	return ln.Addr().String()
}

// rawExchange writes one raw request on a fresh connection and reads the
// one response; closed reports whether the node then closed the connection.
func rawExchange(t *testing.T, addr, raw string) (resp *http.Response, body string, closed bool) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	if _, err := io.WriteString(conn, raw); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	resp, err = http.ReadResponse(br, nil)
	if err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return nil, "", true
		}
		t.Fatal(err)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(200 * time.Millisecond))
	_, err = br.Peek(1)
	var ne net.Error
	return resp, string(b), err != nil && !(errors.As(err, &ne) && ne.Timeout())
}

// hostRecorder is an upstream that answers every request and records the
// hosts /x was fetched from.
type hostRecorder struct {
	mu    sync.Mutex
	hosts []string
}

func (h *hostRecorder) Do(req *httpmsg.Request) (*httpmsg.Response, error) {
	if req.URL.Path == "/x" {
		h.mu.Lock()
		h.hosts = append(h.hosts, req.URL.Host)
		h.mu.Unlock()
		return httpmsg.NewTextResponse(200, "origin"), nil
	}
	return httpmsg.NewTextResponse(404, "not found"), nil
}

// TestRedirectSuffixKeepsPortAndIgnoresCase: stripping .nakika.net leaves
// the port on the origin's host, and the suffix matches in any case, through
// both entry points.
func TestRedirectSuffixKeepsPortAndIgnoresCase(t *testing.T) {
	hosts := []string{"shop.example.org.nakika.net:8080", "SHOP.EXAMPLE.ORG.NAKIKA.NET:8080", "shop.example.org.Nakika.Net"}
	want := []string{"shop.example.org:8080", "SHOP.EXAMPLE.ORG:8080", "shop.example.org"}
	check := func(t *testing.T, rec *hostRecorder) {
		t.Helper()
		rec.mu.Lock()
		defer rec.mu.Unlock()
		if strings.Join(rec.hosts, " ") != strings.Join(want, " ") {
			t.Errorf("origin fetched from %q, want %q", rec.hosts, want)
		}
	}
	t.Run("ServeHTTP", func(t *testing.T) {
		rec := &hostRecorder{}
		n := newTestNodeUpstream(t, "edge-suffix", rec, nil)
		for _, h := range hosts {
			w := httptest.NewRecorder()
			n.ServeHTTP(w, httptest.NewRequest("GET", "http://"+h+"/x", nil))
			if w.Code != 200 {
				t.Fatalf("%s: status %d", h, w.Code)
			}
		}
		check(t, rec)
	})
	t.Run("Serve", func(t *testing.T) {
		rec := &hostRecorder{}
		addr := serveLoopback(t, newTestNodeUpstream(t, "edge-suffix", rec, nil))
		for _, h := range hosts {
			if resp, _, _ := rawExchange(t, addr, "GET /x HTTP/1.1\r\nHost: "+h+"\r\n\r\n"); resp == nil || resp.StatusCode != 200 {
				t.Fatalf("%s: %v", h, resp)
			}
		}
		check(t, rec)
	})
}

// TestServeRecoversUpstreamPanic: a panic while serving closes that
// request's connection and is counted; the next connection is served.
func TestServeRecoversUpstreamPanic(t *testing.T) {
	upstream := FetcherFunc(func(req *httpmsg.Request) (*httpmsg.Response, error) {
		switch req.URL.Path {
		case "/boom":
			panic("upstream exploded")
		case "/nakika.js":
			return httpmsg.NewTextResponse(404, "no script"), nil
		}
		return httpmsg.NewTextResponse(200, "fine"), nil
	})
	n := newTestNodeUpstream(t, "edge-panic", upstream, nil)
	addr := serveLoopback(t, n)
	if resp, _, closed := rawExchange(t, addr, "GET /boom HTTP/1.1\r\nHost: o.example\r\n\r\n"); resp != nil || !closed {
		t.Fatalf("panicking request: response %v, closed %v; want the connection closed unanswered", resp, closed)
	}
	if got := n.ingress.panics.Load(); got != 1 {
		t.Errorf("panics counted = %d, want 1", got)
	}
	if resp, body, _ := rawExchange(t, addr, "GET /ok HTTP/1.1\r\nHost: o.example\r\n\r\n"); resp == nil || resp.StatusCode != 200 || body != "fine" {
		t.Fatalf("next connection: %v %q", resp, body)
	}
}

// TestServeRefusesMalformed: each malformed request gets its status and a
// closed connection, is counted by reason, and the node keeps serving.
func TestServeRefusesMalformed(t *testing.T) {
	origin := newMemOrigin()
	origin.addText("http://o.example/ok", "fine", 60)
	n := newTestNode(t, "edge-refuse", origin, nil)
	addr := serveLoopback(t, n)
	cases := []struct {
		raw    string
		status int
		reason httpmsg.Reason
	}{
		{"GET /ok\r\n\r\n", 400, httpmsg.ReasonRequestLine},
		{"GET /ok HTTP/1.1\r\n\r\n", 400, httpmsg.ReasonHost},
		{"GET /ok HTTP/1.1\r\nHost: o.example\r\nBad Name: v\r\n\r\n", 400, httpmsg.ReasonHeader},
		{"POST /ok HTTP/1.1\r\nHost: o.example\r\nTransfer-Encoding: gzip\r\n\r\n", 501, httpmsg.ReasonTransferEncoding},
		{"GET /ok HTTP/1.1\r\nHost: o.example\r\nExpect: teapot\r\n\r\n", 417, httpmsg.ReasonExpect},
		{"POST /ok HTTP/1.1\r\nHost: o.example\r\nContent-Length: 9999999999\r\n\r\n", 400, httpmsg.ReasonBodyTooLarge},
		{"GET /ok HTTP/1.1\r\nHost: o.example\r\nX: " + strings.Repeat("a", httpmsg.MaxHeaderBytes) + "\r\n\r\n", 431, httpmsg.ReasonHeaderTooLarge},
	}
	for _, tc := range cases {
		resp, _, closed := rawExchange(t, addr, tc.raw)
		if resp == nil || resp.StatusCode != tc.status || !closed {
			t.Errorf("%.50q: response %v, closed %v; want %d and a closed connection", tc.raw, resp, closed, tc.status)
		}
		if got := n.ingress.rejected[tc.reason].Load(); got != 1 {
			t.Errorf("%.50q: nakika_ingress_rejected_total{reason=%q} = %d, want 1", tc.raw, tc.reason, got)
		}
	}
	if resp, body, closed := rawExchange(t, addr, "GET /ok HTTP/1.1\r\nHost: o.example\r\n\r\n"); resp == nil || resp.StatusCode != 200 || body != "fine" || closed {
		t.Fatalf("well-formed request after the refusals: %v %q closed %v", resp, body, closed)
	}
}

// TestDrainFinishesInFlightAndClosesIdle: Drain closes an idle keep-alive
// connection at once, lets a request in flight finish with Connection:
// close, and returns only after it; Serve returns nil.
func TestDrainFinishesInFlightAndClosesIdle(t *testing.T) {
	release := make(chan struct{})
	upstream := FetcherFunc(func(req *httpmsg.Request) (*httpmsg.Response, error) {
		switch req.URL.Path {
		case "/slow":
			<-release
		case "/nakika.js":
			return httpmsg.NewTextResponse(404, "no script"), nil
		}
		return httpmsg.NewTextResponse(200, "done"), nil
	})
	n := newTestNodeUpstream(t, "edge-drain", upstream, nil)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- n.Serve(ln) }()
	addr := ln.Addr().String()

	idle, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer idle.Close()
	io.WriteString(idle, "GET /fast HTTP/1.1\r\nHost: o.example\r\n\r\n")
	idleBR := bufio.NewReader(idle)
	if resp, err := http.ReadResponse(idleBR, nil); err != nil || resp.StatusCode != 200 {
		t.Fatalf("idle connection's first request: %v %v", resp, err)
	} else {
		io.Copy(io.Discard, resp.Body)
	}

	busy, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer busy.Close()
	io.WriteString(busy, "GET /slow HTTP/1.1\r\nHost: o.example\r\n\r\n")
	for n.LoadScore() < 1 { // the slow request is in the pipeline
		time.Sleep(time.Millisecond)
	}

	drained := make(chan error, 1)
	go func() { drained <- n.Drain(context.Background()) }()
	idle.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := idleBR.Peek(1); !errors.Is(err, io.EOF) {
		t.Fatalf("idle connection not closed by Drain: %v", err)
	}
	if err := <-served; err != nil {
		t.Fatalf("Serve after Drain: %v", err)
	}
	select {
	case <-drained:
		t.Fatal("Drain returned with a request in flight")
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	resp, err := http.ReadResponse(bufio.NewReader(busy), nil)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != 200 || string(body) != "done" || !resp.Close {
		t.Fatalf("in-flight request: %d %q close=%v; want 200 \"done\" and Connection: close", resp.StatusCode, body, resp.Close)
	}
	if err := <-drained; err != nil {
		t.Fatalf("Drain: %v", err)
	}
}

// errListener fails each Accept with the next of its errors. Serve calls
// nothing else on it.
type errListener struct {
	net.Listener
	errs []error
}

func (l *errListener) Accept() (net.Conn, error) {
	err := l.errs[0]
	l.errs = l.errs[1:]
	return nil, err
}

// TestServeAcceptErrors: Serve waits out an Accept error that can clear by
// itself (out of file descriptors) and returns any other, so the daemon
// exits rather than retrying a listener that will never work again.
func TestServeAcceptErrors(t *testing.T) {
	emfile := &net.OpError{Op: "accept", Net: "tcp", Err: os.NewSyscallError("accept", syscall.EMFILE)}
	broken := errors.New("listener broken")
	ln := &errListener{errs: []error{emfile, emfile, broken}}
	if err := new(Node).Serve(ln); err != broken {
		t.Fatalf("Serve returned %v, want %v after two retried EMFILEs", err, broken)
	}
	if len(ln.errs) != 0 {
		t.Fatalf("%d Accept errors left unread", len(ln.errs))
	}
}

// pipeListener hands out the server ends of net.Pipe connections.
type pipeListener struct {
	conns chan net.Conn
	done  chan struct{}
	once  sync.Once
}

func newPipeListener() *pipeListener {
	return &pipeListener{conns: make(chan net.Conn), done: make(chan struct{})}
}

func (l *pipeListener) dial() net.Conn {
	client, server := net.Pipe()
	l.conns <- server
	return client
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

func (l *pipeListener) Addr() net.Addr { return &net.TCPAddr{IP: net.IPv4(127, 0, 0, 1)} }

// pipeClient drives one keep-alive connection without allocating: it
// writes its requests in turn and reads each response into a reused buffer.
type pipeClient struct {
	conn net.Conn
	br   *bufio.Reader
	reqs [][]byte
	next int
	body []byte
}

func (c *pipeClient) roundTrip(t testing.TB) {
	req := c.reqs[c.next%len(c.reqs)]
	c.next++
	if _, err := c.conn.Write(req); err != nil {
		t.Fatal(err)
	}
	length := -1
	for {
		line, err := c.br.ReadSlice('\n')
		if err != nil {
			t.Fatal(err)
		}
		if len(line) <= 2 {
			break
		}
		if v, ok := bytes.CutPrefix(line, []byte("Content-Length: ")); ok {
			length = 0
			for _, d := range bytes.TrimSpace(v) {
				length = length*10 + int(d-'0')
			}
		}
	}
	if length < 0 {
		t.Fatal("response without Content-Length")
	}
	if _, err := io.ReadFull(c.br, c.body[:length]); err != nil {
		t.Fatal(err)
	}
}

// hitAllocs counts the allocations of one keep-alive cache hit, client
// included, through a server started on a pipe listener. The client sends
// reqs in turn.
func hitAllocs(t *testing.T, serve func(net.Listener), reqs ...string) float64 {
	l := newPipeListener()
	go serve(l)
	defer l.Close()
	c := &pipeClient{conn: l.dial(), body: make([]byte, 64<<10)}
	for _, r := range reqs {
		c.reqs = append(c.reqs, []byte(r))
	}
	defer c.conn.Close()
	c.br = bufio.NewReaderSize(c.conn, 64<<10)
	for i := 0; i < 20; i++ {
		c.roundTrip(t)
	}
	return testing.AllocsPerRun(500, func() { c.roundTrip(t) })
}

// TestServeHitAllocCeiling gates the allocations of one keep-alive cache
// hit through Node.Serve, the daemon's client port, at what the client loop
// allocates by itself against a canned server: the node's side allocates
// nothing. It reports ServeHTTP's count under net/http's server from the
// same loop beside it. Measured on go1.24 amd64: the client's 0 since a
// connection lends each request its trace, its hit Response and its key
// buffer, the ring copies the sample and the request head's string is
// shared (6 before, when they were allocated per hit; 8 when a hit rebuilt
// its header and its site's nakika.js URL, 13 when it decoded the header
// into a map).
func TestServeHitAllocCeiling(t *testing.T) {
	origin := newMemOrigin()
	body := strings.Repeat("<p>cached page</p>", 200)
	origin.addText("http://o.example/page.html", body, 3600)
	n := newTestNode(t, "edge-allocs", origin, nil)
	const req = "GET /page.html HTTP/1.1\r\nHost: o.example\r\nUser-Agent: alloc-test\r\nAccept: */*\r\n\r\n"
	canned := []byte("HTTP/1.1 200 OK\r\nContent-Length: " + strconv.Itoa(len(body)) + "\r\n\r\n" + body)
	client := hitAllocs(t, func(l net.Listener) { cannedServe(l, canned) }, req)
	serve := hitAllocs(t, func(l net.Listener) { n.Serve(l) }, req)
	serveHTTP := hitAllocs(t, func(l net.Listener) { (&http.Server{Handler: n}).Serve(l) }, req)
	t.Logf("allocations per keep-alive cache hit: Node.Serve %.0f, ServeHTTP under net/http %.0f, the client alone %.0f", serve, serveHTTP, client)
	if serve > client {
		t.Errorf("Node.Serve allocates %.0f times per cache hit, ceiling the client's %.0f", serve, client)
	}
	if hits := origin.hitCount("http://o.example/page.html"); hits != 1 {
		t.Errorf("origin fetched the page %d times, want 1 (every other request a cache hit)", hits)
	}
}

// cannedServe answers every request on each connection ln accepts with
// reply, reading the request head line by line into a reused buffer: a
// server that allocates nothing per request, so a hitAllocs loop against it
// counts the client's own allocations.
func cannedServe(ln net.Listener, reply []byte) {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		go func() {
			defer conn.Close()
			br := bufio.NewReader(conn)
			for {
				line, err := br.ReadSlice('\n')
				if err != nil {
					return
				}
				if len(line) <= 2 {
					if _, err := conn.Write(reply); err != nil {
						return
					}
				}
			}
		}()
	}
}

// TestDaemonShapeHitAllocatesNothing drives Node.Serve as nakikad runs it:
// the observability plane on, resource controls on, both walls configured
// (their URLs answer 404) and a site nakika.js whose policy matches the
// request's multi-label host and 3-segment path. A keep-alive client sends
// four cached pages in turn. The node's side of each hit must allocate
// nothing: the count through Node.Serve, less what the same client loop
// allocates against a canned server, is 0.
func TestDaemonShapeHitAllocatesNothing(t *testing.T) {
	origin := newMemOrigin()
	const site = "http://www.shop.example.org"
	origin.addScript(site+"/nakika.js", `
		var p = new Policy();
		p.url = [ "www.shop.example.org/catalog/books/new" ];
		p.register();
		var q = new Policy();
		q.url = [ "www.shop.example.org/cgi-bin" ];
		q.onRequest = function() { Response.setHeader("X-Never", "1"); };
		q.register();
	`)
	var reqs []string
	body := strings.Repeat("<p>cached page</p>", 60)
	for i := 0; i < 4; i++ {
		path := "/catalog/books/new/page" + string(rune('0'+i)) + ".html"
		origin.addText(site+path, body, 3600)
		reqs = append(reqs, "GET "+path+" HTTP/1.1\r\nHost: www.shop.example.org\r\nUser-Agent: alloc-test\r\nAccept: */*\r\n\r\n")
	}
	n := newTestNode(t, "edge-daemon-shape", origin, func(cfg *Config) {
		cfg.EnableResources = true
		cfg.ClientWallURL = site + "/clientwall.js"
		cfg.ServerWallURL = site + "/serverwall.js"
	})
	if n.ring == nil {
		t.Fatal("the observability plane is off")
	}
	resp, trace, err := n.Handle(httpmsg.MustRequest("GET", site+"/catalog/books/new/page0.html"))
	if err != nil || resp.Status != http.StatusOK {
		t.Fatalf("warm-up: %v, %v", resp, err)
	}
	if len(trace.Stages) != 3 || !trace.Stages[1].Matched || trace.RanHandlers() {
		t.Fatalf("warm-up ran %+v: want the three stages, the site's policy matched and no handler run", trace.Stages)
	}
	canned := []byte("HTTP/1.1 200 OK\r\nContent-Length: " + strconv.Itoa(len(body)) + "\r\n\r\n" + body)
	client := hitAllocs(t, func(l net.Listener) { cannedServe(l, canned) }, reqs...)
	serve := hitAllocs(t, func(l net.Listener) { n.Serve(l) }, reqs...)
	t.Logf("allocations per keep-alive hit: Node.Serve loop %.2f, the client alone %.2f", serve, client)
	if node := serve - client; node > 0 {
		t.Errorf("the node allocates %.2f times per keep-alive hit, want 0", node)
	}
	for _, r := range reqs {
		path := strings.Fields(r)[1]
		if hits := origin.hitCount(site + path); hits != 1 {
			t.Errorf("origin fetched %s %d times, want 1", path, hits)
		}
	}
}

// TestScriptCannotKeepTheConnectionsHitBuffer: a client connection copies
// each cache hit's body into one buffer it reuses from request to request,
// so a script that keeps the body it saw in a global must hold a copy of its
// own, never that buffer. The site script keeps the body of the first hit on
// a keep-alive connection (and writes into it) and reports it on every later
// response; a later hit of another page, copied into the same buffer, must
// not show through.
func TestScriptCannotKeepTheConnectionsHitBuffer(t *testing.T) {
	origin := newMemOrigin()
	origin.addText("http://o.example/a", "aaaaaaaa", 3600)
	origin.addText("http://o.example/b", "bbbbbbbb", 3600)
	origin.addScript("http://o.example/nakika.js", `
		var kept = null;
		var p = new Policy();
		p.url = [ "o.example/" ];
		p.onResponse = function() {
			var b = Response.body();
			if (Request.getHeader("X-Keep")) { kept = b; }
			if (kept != null) { Response.setHeader("X-Kept", kept.toString()); }
			b[0] = 88;
		};
		p.register();
	`)
	n := newTestNode(t, "edge-kept", origin, nil)
	for _, u := range []string{"http://o.example/a", "http://o.example/b"} {
		if _, _, err := n.Handle(httpmsg.MustRequest("GET", u)); err != nil {
			t.Fatal(err)
		}
	}
	conn, err := net.Dial("tcp", serveLoopback(t, n))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	br := bufio.NewReader(conn)
	for i, c := range []struct{ path, keep, body, kept string }{
		{"/a", "X-Keep: 1\r\n", "Xaaaaaaa", "aaaaaaaa"},
		{"/b", "", "Xbbbbbbb", "Xaaaaaaa"},
		{"/a", "", "Xaaaaaaa", "Xaaaaaaa"},
		{"/b", "", "Xbbbbbbb", "Xaaaaaaa"},
	} {
		if _, err := io.WriteString(conn, "GET "+c.path+" HTTP/1.1\r\nHost: o.example\r\n"+c.keep+"\r\n"); err != nil {
			t.Fatal(err)
		}
		resp, err := http.ReadResponse(br, nil)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if string(body) != c.body || resp.Header.Get("X-Na-Kika-Node") == "" {
			t.Fatalf("request %d, %s: %q, want %q", i, c.path, body, c.body)
		}
		if kept := resp.Header.Get("X-Kept"); kept != c.kept {
			t.Errorf("request %d, %s: the body the script kept from the first hit reads %q, want %q", i, c.path, kept, c.kept)
		}
	}
}
