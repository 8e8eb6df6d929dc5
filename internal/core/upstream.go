package core

import (
	"context"
	"crypto/tls"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"nakika/internal/httpmsg"
)

// This file is the node's upstream client. HTTPFetcher writes each origin
// request and reads its response with httpmsg's HTTP/1.1 codec
// (httpmsg.ClientConn) on the caller's goroutine, over connections it keeps
// alive per origin. It replaced net/http's DefaultClient and differs from
// it on purpose: a 3xx reaches the client as the origin sent it and is
// never followed; no Accept-Encoding: gzip is added and no body is
// decompressed; HTTP_PROXY and its kin are ignored. It speaks HTTP/1.1
// only, over crypto/tls for https.

const (
	// maxIdlePerOrigin caps the idle connections kept per origin; one
	// released past it is closed.
	maxIdlePerOrigin = 16
	// idleTimeout closes a connection idle this long, as net/http's
	// DefaultTransport does.
	idleTimeout = 90 * time.Second
	// tlsHandshakeTimeout is DefaultTransport's.
	tlsHandshakeTimeout = 10 * time.Second
)

// upstreamDialer dials as DefaultTransport does. Past the dial and the TLS
// handshake an origin request has no deadline, as under DefaultClient
// (ROADMAP item 6).
var upstreamDialer = net.Dialer{Timeout: 30 * time.Second, KeepAlive: 30 * time.Second}

// errBodyClosed is what a streamed origin body reads after Close.
var errBodyClosed = errors.New("core: read on a closed origin body")

// HTTPFetcher fetches from origins over HTTP/1.1 with the node's own codec
// and keeps connections alive per origin; it is the upstream a node uses
// when Config.Upstream is nil. The zero value is ready to use. An
// HTTPFetcher must not be copied after its first use.
type HTTPFetcher struct {
	mu   sync.Mutex
	idle map[origin][]*upstreamConn // per origin, the most recently released last

	// tlsConfig, when set, is the base of every TLS connection's
	// configuration: tests trust their own certificate authority with it.
	tlsConfig *tls.Config

	// Connections dialed; idle connections reused; requests sent again on
	// a fresh connection after a reused one failed; connections idle now.
	dials, reuses, retries, idleConns atomic.Int64
}

// origin names a pool: the address dialed, and whether TLS runs over it.
type origin struct {
	addr   string
	secure bool
}

// upstreamConn is one connection to an origin.
type upstreamConn struct {
	f      *HTTPFetcher
	origin origin
	conn   net.Conn
	cc     *httpmsg.ClientConn
	// Set while the connection is idle: since when, and the timer that
	// closes it idleTimeout later.
	idleAt time.Time
	timer  *time.Timer
}

// Do implements Fetcher: the response with its body read whole.
func (f *HTTPFetcher) Do(req *httpmsg.Request) (*httpmsg.Response, error) {
	uc, resp, err := f.roundTrip(req)
	if err != nil {
		return nil, err
	}
	if resp.Body, err = uc.cc.ReadBody(); err != nil {
		uc.conn.Close()
		return nil, fmt.Errorf("core: read origin body: %w", err)
	}
	f.release(uc)
	return resp, nil
}

// DoStream implements StreamFetcher. The body hands its connection back at
// its end, and closes it when it is closed before.
func (f *HTTPFetcher) DoStream(req *httpmsg.Request) (StreamHead, io.ReadCloser, error) {
	uc, resp, err := f.roundTrip(req)
	if err != nil {
		return StreamHead{}, nil, err
	}
	head := StreamHead{Status: resp.Status, Header: resp.Header, Length: uc.cc.BodyLength()}
	if head.Length == 0 {
		f.release(uc)
		return head, http.NoBody, nil
	}
	return head, &upstreamBody{uc: uc}, nil
}

// roundTrip sends req and reads the response head, on the origin's most
// recently released connection when there is one. A request that fails on
// a reused connection before its response begins is sent once more, on a
// fresh connection, when it may be replayed (replayable); one that may not
// goes on a reused connection only when a peek finds it still open
// (stillOpen), and is never sent twice. The caller owns the connection
// until the body has been read (release) or abandoned (close it).
func (f *HTTPFetcher) roundTrip(req *httpmsg.Request) (*upstreamConn, *httpmsg.Response, error) {
	o, err := originOf(req.URL)
	if err != nil {
		return nil, nil, err
	}
	replay := replayable(req)
	for retry := false; ; retry = true {
		uc, reused, err := f.conn(o, req.URL, retry, !replay)
		if err != nil {
			return nil, nil, err
		}
		if err = uc.cc.WriteRequest(req); err == nil {
			err = uc.cc.Await()
		}
		if err == nil {
			var resp *httpmsg.Response
			if resp, err = uc.cc.ReadResponse(req.Method); err == nil {
				return uc, resp, nil
			}
			uc.conn.Close()
			return nil, nil, fmt.Errorf("core: response from %s: %w", o.addr, err)
		}
		uc.conn.Close()
		if !reused || retry || !replay {
			return nil, nil, fmt.Errorf("core: request to %s: %w", o.addr, err)
		}
		f.retries.Add(1)
	}
}

// originOf is the pool a request URL's connections come from.
func originOf(u *url.URL) (origin, error) {
	o := origin{addr: u.Host}
	port := "80"
	switch u.Scheme {
	case "http":
	case "https":
		o.secure, port = true, "443"
	default:
		return o, fmt.Errorf("core: unsupported protocol scheme %q", u.Scheme)
	}
	if u.Host == "" {
		return o, errors.New("core: no host in request URL")
	}
	if u.Port() == "" {
		o.addr = net.JoinHostPort(u.Hostname(), port)
	}
	return o, nil
}

// replayable reports whether req may be sent again after a failure, as
// net/http decides: its method is idempotent, or it carries an
// idempotency key.
func replayable(req *httpmsg.Request) bool {
	switch req.Method {
	case "", http.MethodGet, http.MethodHead, http.MethodOptions, http.MethodTrace:
		return true
	}
	_, key := req.Header["Idempotency-Key"]
	_, xkey := req.Header["X-Idempotency-Key"]
	return key || xkey
}

// conn returns a connection to o, and whether it was idle: the most
// recently released one unless fresh is set, and when live is set only one
// still open and silent; else a new one.
func (f *HTTPFetcher) conn(o origin, u *url.URL, fresh, live bool) (*upstreamConn, bool, error) {
	for !fresh {
		uc := f.takeIdle(o)
		if uc == nil {
			break
		}
		if !live || stillOpen(uc.conn) {
			f.reuses.Add(1)
			return uc, true, nil
		}
		uc.conn.Close()
	}
	uc, err := f.dial(o, u.Hostname())
	if err != nil {
		return nil, false, err
	}
	f.dials.Add(1)
	return uc, false, nil
}

// takeIdle takes the origin's most recently released connection off its
// idle list; nil when there is none.
func (f *HTTPFetcher) takeIdle(o origin) *upstreamConn {
	f.mu.Lock()
	defer f.mu.Unlock()
	list := f.idle[o]
	if len(list) == 0 {
		return nil
	}
	uc := list[len(list)-1]
	list[len(list)-1] = nil
	f.idle[o] = list[:len(list)-1]
	f.idleConns.Add(-1)
	uc.timer.Stop()
	return uc
}

// release puts a connection whose exchange is over back on its origin's
// idle list, or closes it when it cannot carry another request or the list
// is full.
func (f *HTTPFetcher) release(uc *upstreamConn) {
	if uc.cc.Reusable() {
		f.mu.Lock()
		if list := f.idle[uc.origin]; len(list) < maxIdlePerOrigin {
			if f.idle == nil {
				f.idle = make(map[origin][]*upstreamConn)
			}
			f.idle[uc.origin] = append(list, uc)
			f.idleConns.Add(1)
			uc.idleAt = time.Now()
			if uc.timer == nil {
				uc.timer = time.AfterFunc(idleTimeout, uc.expire)
			} else {
				uc.timer.Reset(idleTimeout)
			}
			f.mu.Unlock()
			return
		}
		f.mu.Unlock()
	}
	uc.conn.Close()
}

// expire closes a connection idle for idleTimeout. A timer that fires as
// the connection is taken, or after it was released again, finds it off
// the list or not idle long enough, and leaves it.
func (uc *upstreamConn) expire() {
	f := uc.f
	f.mu.Lock()
	list := f.idle[uc.origin]
	i := slices.Index(list, uc)
	if i < 0 || time.Since(uc.idleAt) < idleTimeout {
		f.mu.Unlock()
		return
	}
	if list = slices.Delete(list, i, i+1); len(list) == 0 {
		delete(f.idle, uc.origin)
	} else {
		f.idle[uc.origin] = list
	}
	f.idleConns.Add(-1)
	f.mu.Unlock()
	uc.conn.Close()
}

// dial opens a connection to o, with TLS for https, verified against host.
func (f *HTTPFetcher) dial(o origin, host string) (*upstreamConn, error) {
	conn, err := upstreamDialer.Dial("tcp", o.addr)
	if err != nil {
		return nil, err
	}
	if o.secure {
		cfg := &tls.Config{}
		if f.tlsConfig != nil {
			cfg = f.tlsConfig.Clone()
		}
		if cfg.ServerName == "" {
			cfg.ServerName = host
		}
		tc := tls.Client(conn, cfg)
		ctx, cancel := context.WithTimeout(context.Background(), tlsHandshakeTimeout)
		err := tc.HandshakeContext(ctx)
		cancel()
		if err != nil {
			conn.Close()
			return nil, fmt.Errorf("core: TLS handshake with %s: %w", o.addr, err)
		}
		conn = tc
	}
	return &upstreamConn{f: f, origin: o, conn: conn, cc: httpmsg.NewClientConn(conn)}, nil
}

// upstreamBody is a streamed response body: at its end the connection goes
// back on its origin's idle list; closed before, the connection closes.
type upstreamBody struct {
	uc  *upstreamConn // nil once the body ended or was closed
	err error         // what Read returns then
}

func (b *upstreamBody) Read(p []byte) (int, error) {
	if b.uc == nil {
		return 0, b.err
	}
	n, err := b.uc.cc.Read(p)
	if err != nil {
		if err == io.EOF {
			b.uc.f.release(b.uc)
		} else {
			b.uc.conn.Close()
		}
		b.uc, b.err = nil, err
	}
	return n, err
}

func (b *upstreamBody) Close() error {
	if b.uc != nil {
		b.uc.conn.Close()
		b.uc, b.err = nil, errBodyClosed
	}
	return nil
}
