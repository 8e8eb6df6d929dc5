package core

import (
	"context"
	"errors"
	"log"
	"net"
	"net/http"
	"net/url"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"nakika/internal/httpmsg"
)

// This file is the node's HTTP/1 ingress: Serve speaks HTTP/1.1 on a client
// listener through httpmsg's codec, and ServeHTTP serves the node as an
// http.Handler (the in-process benchmark and the httptest-based tests use
// it). After the codec the two are one path, respond. ServeAdmin runs the
// same accept loop and connection code on the admin listener with a handler
// of its own, so a daemon links one HTTP server.

// maxRequestBody bounds a client request's body at either entry point.
const maxRequestBody = 8 << 20

// maxReplyBuffer bounds the hit buffer a client connection keeps between
// requests.
const maxReplyBuffer = 64 << 10

// redirectSuffix is what clients append to an origin's host name to reach
// the node by DNS redirection (Section 3).
const redirectSuffix = ".nakika.net"

// ingress is the bookkeeping of Serve and ServeAdmin: the listeners and
// connections a Drain closes, the count of open connections it waits on, and
// the counters of requests the codec refused and of panics recovered while
// serving, on either port.
type ingress struct {
	mu        sync.Mutex
	listeners map[net.Listener]struct{}
	conns     map[*ingressConn]struct{}
	open      sync.WaitGroup
	draining  atomic.Bool
	rejected  [httpmsg.NumReasons]atomic.Int64
	panics    atomic.Int64
}

// ingressConn is one client or admin connection. Its state moves idle → active
// when a request's first byte arrives and back after the response; a Drain
// closes it only from idle, so it never cuts a request in flight. One that
// finishes a request while the port drains closes itself instead.
type ingressConn struct {
	rwc   net.Conn
	state atomic.Int32
}

const (
	connIdle int32 = iota
	connActive
	connClosed
)

// respond is the one step both entry points run on a staged request: the
// redirection suffix comes off the host, the node handles the request, and
// a Range header narrows the reply. release reports whether req may go back
// to the pool once the response is written: only when no script handler
// saw it, since a script could keep its bound request.
func (n *Node) respond(req *httpmsg.Request) (resp *httpmsg.Response, release bool) {
	stripRedirectSuffix(req.URL)
	resp, trace, err := n.Handle(req)
	if err != nil {
		return httpmsg.NewErrorResponse(http.StatusInternalServerError, err.Error()), false
	}
	// Range narrowing happens at the very edge, after every script saw the
	// full 200: a satisfiable Range on a GET/HEAD becomes a 206 (lazy — a
	// streamed body only reads the requested segments), an unsatisfiable
	// one a 416.
	return httpmsg.ApplyRange(req, resp), trace != nil && !trace.RanHandlers()
}

// stripRedirectSuffix recovers the origin's host from a redirected one:
// shop.example.org.nakika.net:8080 is shop.example.org:8080. DNS names are
// case-insensitive, so the suffix is too.
func stripRedirectSuffix(u *url.URL) {
	host := u.Hostname()
	cut := len(host) - len(redirectSuffix)
	if cut <= 0 || !strings.EqualFold(host[cut:], redirectSuffix) {
		return
	}
	if port := u.Port(); port != "" {
		u.Host = net.JoinHostPort(host[:cut], port)
	} else {
		u.Host = host[:cut]
	}
}

// ServeHTTP implements http.Handler. Requests are staged in pooled httpmsg
// objects and released under respond's rule.
func (n *Node) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	req, err := httpmsg.AcquireFromHTTPRequest(r, maxRequestBody)
	if err != nil {
		var re *httpmsg.RequestError
		if errors.As(err, &re) {
			n.ingress.rejected[re.Reason].Add(1)
		}
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	resp, release := n.respond(req)
	if err := resp.WriteToMethod(w, req.Method); err != nil {
		n.errors.Add(1)
	}
	if release {
		req.Release()
	}
}

// Serve accepts client connections on ln and serves HTTP/1.1 on each until
// ln is closed. A Drain closes it and makes Serve return nil; any other
// close returns the listener's error. Serve may run on several listeners
// at once.
func (n *Node) Serve(ln net.Listener) error { return n.serve(ln, n.respond) }

// ServeAdmin serves the admin surface on ln as Serve serves the client port,
// with handle in place of the node: its requests never reach Handle, so
// admission, the access log, the trace ring and the request counters do not
// see them. A Drain closes ln with the client listeners.
func (n *Node) ServeAdmin(ln net.Listener, handle func(*httpmsg.Request) *httpmsg.Response) error {
	return n.serve(ln, func(req *httpmsg.Request) (*httpmsg.Response, bool) { return handle(req), true })
}

// handler answers one request read off a connection; release reports
// whether the request may go back to the pool once the response is written.
type handler func(req *httpmsg.Request) (resp *httpmsg.Response, release bool)

// serve is the accept loop of both ports: it serves each connection ln
// accepts with handle.
func (n *Node) serve(ln net.Listener, handle handler) error {
	in := &n.ingress
	in.mu.Lock()
	if in.draining.Load() {
		in.mu.Unlock()
		ln.Close()
		return nil
	}
	if in.listeners == nil {
		in.listeners = make(map[net.Listener]struct{})
	}
	in.listeners[ln] = struct{}{}
	in.mu.Unlock()
	defer func() {
		in.mu.Lock()
		delete(in.listeners, ln)
		in.mu.Unlock()
	}()
	var backoff time.Duration
	for {
		rwc, err := ln.Accept()
		if err != nil {
			if in.draining.Load() {
				return nil
			}
			if !temporary(err) {
				return err
			}
			// Out of file descriptors, or a timeout: back off as net/http
			// does.
			backoff = min(max(2*backoff, 5*time.Millisecond), time.Second)
			log.Printf("core: accept: %v; retrying in %v", err, backoff)
			time.Sleep(backoff)
			continue
		}
		backoff = 0
		go n.serveConn(rwc, handle)
	}
}

// temporary reports whether an Accept error may clear by itself: the
// process or the system out of file descriptors, or a timeout. serve
// retries those and returns any other, as net/http's server does.
func temporary(err error) bool {
	var ne net.Error
	return errors.Is(err, syscall.EMFILE) || errors.Is(err, syscall.ENFILE) ||
		errors.As(err, &ne) && ne.Timeout()
}

// serveConn serves one connection's requests in order until it closes. A
// panic while serving is recovered here, as net/http's server recovers
// one: it is counted and logged, the connection closes, and the process
// lives.
func (n *Node) serveConn(rwc net.Conn, handle handler) {
	in := &n.ingress
	c := &ingressConn{rwc: rwc}
	in.mu.Lock()
	if in.draining.Load() {
		in.mu.Unlock()
		rwc.Close()
		return
	}
	if in.conns == nil {
		in.conns = make(map[*ingressConn]struct{})
	}
	in.conns[c] = struct{}{}
	in.open.Add(1)
	in.mu.Unlock()
	defer func() {
		if p := recover(); p != nil {
			in.panics.Add(1)
			log.Printf("core: panic serving %s: %v\n%s", rwc.RemoteAddr(), p, debug.Stack())
		}
		rwc.Close()
		in.mu.Lock()
		delete(in.conns, c)
		in.mu.Unlock()
		in.open.Done()
	}()

	hc := httpmsg.NewHTTP1Conn(rwc)
	clientIP := httpmsg.ClientIP(rwc.RemoteAddr().String())
	// reply is the connection's buffer for the body of a cache hit
	// (httpmsg.Request.SetReplyBuffer), reused from one response to the next.
	// A script that reads a body in it reads a copy.
	var reply []byte
	for {
		if hc.Await() != nil || !c.state.CompareAndSwap(connIdle, connActive) {
			return
		}
		req := httpmsg.AcquireRequest()
		req.SetReplyBuffer(&reply)
		if err := hc.ReadRequest(req, maxRequestBody); err != nil {
			req.Release()
			var re *httpmsg.RequestError
			if errors.As(err, &re) {
				in.rejected[re.Reason].Add(1)
				re.Response().WriteHTTP1(hc, http.MethodGet)
				lingerClose(rwc)
			}
			return
		}
		req.ClientIP = clientIP
		var resp *httpmsg.Response
		release := true
		if req.Method == http.MethodOptions && req.URL.Path == "*" {
			// A request about the server itself, which net/http's server
			// answers without a handler: so does the node. Like net/http,
			// it reads no more than 4 KiB of such a body and keeps the
			// connection.
			resp = httpmsg.NewResponse(http.StatusOK)
			hc.KeepAlive = hc.KeepAlive && len(req.Body) <= 4<<10
		} else {
			resp, release = handle(req)
		}
		if in.draining.Load() {
			hc.KeepAlive = false
		}
		if err := resp.WriteHTTP1(hc, req.Method); err != nil {
			n.errors.Add(1)
		}
		if release {
			req.Release()
		}
		if cap(reply) > maxReplyBuffer {
			reply = nil
		}
		if !hc.KeepAlive {
			return
		}
		// A Drain that began after the check above found this connection
		// active, so it is this connection's to close.
		if c.state.Store(connIdle); in.draining.Load() {
			return
		}
	}
}

// lingerClose half-closes a connection after a refusal and waits a moment
// before the full close, as net/http's server does: closing with the
// refused request's bytes unread would reset the connection, and the reset
// can overtake the reply.
func lingerClose(rwc net.Conn) {
	if cw, ok := rwc.(interface{ CloseWrite() error }); ok {
		cw.CloseWrite()
		time.Sleep(500 * time.Millisecond)
	}
}

// Drain stops the client and admin ports the way http.Server.Shutdown does:
// it closes every listener Serve and ServeAdmin run on and every idle
// connection, lets the requests in flight finish, and returns once the last
// connection has left. When ctx ends first, the connections left are closed
// and ctx's error returned.
func (n *Node) Drain(ctx context.Context) error {
	in := &n.ingress
	in.mu.Lock()
	in.draining.Store(true) // from here on, no connection joins in.open
	for ln := range in.listeners {
		ln.Close()
	}
	for c := range in.conns {
		if c.state.CompareAndSwap(connIdle, connClosed) {
			c.rwc.Close()
		}
	}
	in.mu.Unlock()
	left := make(chan struct{})
	go func() { in.open.Wait(); close(left) }()
	select {
	case <-left:
		return nil
	case <-ctx.Done():
		in.mu.Lock()
		for c := range in.conns {
			c.rwc.Close()
		}
		in.mu.Unlock()
		return ctx.Err()
	}
}
