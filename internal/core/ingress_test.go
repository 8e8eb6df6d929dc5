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
		if req.URL.Path == "/boom" {
			panic("upstream exploded")
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
		if req.URL.Path == "/slow" {
			<-release
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
// writes a fixed request and reads the response into a reused buffer.
type pipeClient struct {
	conn net.Conn
	br   *bufio.Reader
	req  []byte
	body []byte
}

func (c *pipeClient) roundTrip(t testing.TB) {
	if _, err := c.conn.Write(c.req); err != nil {
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
// included, through a server started on a pipe listener.
func hitAllocs(t *testing.T, serve func(net.Listener), req string) float64 {
	l := newPipeListener()
	go serve(l)
	defer l.Close()
	c := &pipeClient{conn: l.dial(), req: []byte(req), body: make([]byte, 64<<10)}
	defer c.conn.Close()
	c.br = bufio.NewReaderSize(c.conn, 64<<10)
	for i := 0; i < 20; i++ {
		c.roundTrip(t)
	}
	return testing.AllocsPerRun(500, func() { c.roundTrip(t) })
}

// TestServeHitAllocCeiling gates the allocations of one keep-alive cache
// hit through Node.Serve, the daemon's client port, and reports
// ServeHTTP's count under net/http's server from the same loop beside it.
func TestServeHitAllocCeiling(t *testing.T) {
	const ceiling = 13
	origin := newMemOrigin()
	origin.addText("http://o.example/page.html", strings.Repeat("<p>cached page</p>", 200), 3600)
	n := newTestNode(t, "edge-allocs", origin, nil)
	const req = "GET /page.html HTTP/1.1\r\nHost: o.example\r\nUser-Agent: alloc-test\r\nAccept: */*\r\n\r\n"
	serve := hitAllocs(t, func(l net.Listener) { n.Serve(l) }, req)
	serveHTTP := hitAllocs(t, func(l net.Listener) { (&http.Server{Handler: n}).Serve(l) }, req)
	t.Logf("allocations per keep-alive cache hit: Node.Serve %.0f, ServeHTTP under net/http %.0f", serve, serveHTTP)
	if serve > ceiling {
		t.Errorf("Node.Serve allocates %.0f times per cache hit, ceiling %d", serve, ceiling)
	}
	if hits := origin.hitCount("http://o.example/page.html"); hits != 1 {
		t.Errorf("origin fetched the page %d times, want 1 (every other request a cache hit)", hits)
	}
}
