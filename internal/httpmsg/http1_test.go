package httpmsg

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"testing/iotest"
	"time"
)

const testMaxBody = 8 << 20

// outcome is what one request on a connection came to: staged (req set,
// with whether the connection stays open after it) or refused (with the
// reply's status, 0 when there was none).
type outcome struct {
	req       *Request
	keepAlive bool
	status    int
	stricter  bool // the codec refused where net/http may accept: obs-fold, a chunk line not ending in CRLF
	// options marks an OPTIONS * request, which net/http's server answers
	// itself and so does the node's connection loop.
	options bool
}

// oracle is a real net/http server on loopback whose handler stages each
// request through fillFromHTTPRequest: what the handler receives is what
// ReadRequest must produce from the same bytes, and what the server refuses
// ReadRequest must refuse.
type oracle struct {
	ln  net.Listener
	mu  sync.Mutex
	got map[string][]*Request // staged requests by client address
}

func newOracle(tb testing.TB) *oracle {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	o := &oracle{ln: ln, got: make(map[string][]*Request)}
	srv := &http.Server{Handler: o, ErrorLog: log.New(io.Discard, "", 0)}
	go srv.Serve(ln)
	tb.Cleanup(func() { srv.Close() })
	return o
}

func (o *oracle) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	req, err := FromHTTPRequest(r, testMaxBody)
	if err != nil {
		w.Header().Set("X-Oracle", "refused")
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	o.mu.Lock()
	o.got[r.RemoteAddr] = append(o.got[r.RemoteAddr], req)
	o.mu.Unlock()
	w.Header().Set("X-Oracle", "staged")
	w.Header().Set("Content-Length", "0")
}

// exchange sends in on a fresh connection, closes the sending side, and
// reads every reply. ok is false when the connection was reset, which can
// lose a reply.
func (o *oracle) exchange(tb testing.TB, in []byte) (outs []outcome, ok bool) {
	conn, err := net.Dial("tcp", o.ln.Addr().String())
	if err != nil {
		tb.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	go func() {
		conn.Write(in)
		conn.(*net.TCPConn).CloseWrite()
	}()
	br := bufio.NewReader(conn)
	var staged []bool // keep-alive of each staged reply
	for {
		resp, err := http.ReadResponse(br, nil)
		if err != nil {
			ok = err == io.EOF || errors.Is(err, io.ErrUnexpectedEOF) && br.Buffered() == 0
			break
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		switch {
		case resp.StatusCode == http.StatusContinue:
		case resp.Header.Get("X-Oracle") == "staged":
			staged = append(staged, !resp.Close)
			outs = append(outs, outcome{})
		case resp.StatusCode == http.StatusOK:
			outs = append(outs, outcome{options: true, keepAlive: !resp.Close})
		default:
			outs = append(outs, outcome{status: resp.StatusCode})
		}
	}
	o.mu.Lock()
	reqs := o.got[conn.LocalAddr().String()]
	delete(o.got, conn.LocalAddr().String())
	o.mu.Unlock()
	if len(reqs) != len(staged) {
		tb.Fatalf("oracle staged %d requests but replied to %d", len(reqs), len(staged))
	}
	j := 0
	for i := range outs {
		if outs[i].status == 0 && !outs[i].options {
			outs[i].req, outs[i].keepAlive = reqs[j], staged[j]
			j++
		}
	}
	return outs, ok
}

// readAll runs the codec over in as a connection loop does.
func readAll(in []byte) []outcome {
	var sink bytes.Buffer
	c := NewHTTP1Conn(struct {
		io.Reader
		io.Writer
	}{bytes.NewReader(in), &sink})
	var outs []outcome
	for c.Await() == nil {
		req := &Request{Header: make(http.Header)}
		err := c.ReadRequest(req, testMaxBody)
		if err == io.EOF {
			break
		}
		if err != nil {
			o := outcome{}
			var re *RequestError
			if errors.As(err, &re) {
				o.status, o.stricter = re.Status, re.msg == errObsFold || re.msg == errChunkLineEnd
			}
			return append(outs, o)
		}
		if req.Method == http.MethodOptions && req.URL.Path == "*" {
			// net/http's server reads 4 KiB of such a body at most.
			c.KeepAlive = c.KeepAlive && len(req.Body) <= 4<<10
			outs = append(outs, outcome{options: true, keepAlive: c.KeepAlive})
		} else {
			outs = append(outs, outcome{req: req, keepAlive: c.KeepAlive})
		}
		if !c.KeepAlive {
			break
		}
	}
	return outs
}

// compareOutcomes checks the codec against the oracle, request by request:
// both stage a request alike or both refuse it. Where the codec is
// stricter than the oracle may be (a folded header, which net/http joins; a
// chunk-size line not ending in exactly CRLF, which net/http takes before
// Go 1.23.8 and 1.24.2), it may refuse what the oracle stages; nothing from
// there on is compared.
func compareOutcomes(t *testing.T, in []byte, want, got []outcome) {
	t.Helper()
	for i := 0; i < len(want) || i < len(got); i++ {
		if i >= len(got) || i >= len(want) {
			t.Fatalf("input %q: oracle has %d outcomes, codec %d", in, len(want), len(got))
		}
		w, g := want[i], got[i]
		if g.stricter {
			return
		}
		if w.options || g.options {
			if w.options != g.options || w.keepAlive != g.keepAlive {
				t.Fatalf("input %q, request %d: OPTIONS * answered by oracle %v (keep-alive %v), by codec %v (keep-alive %v)",
					in, i, w.options, w.keepAlive, g.options, g.keepAlive)
			}
			continue
		}
		if (w.req == nil) != (g.req == nil) {
			t.Fatalf("input %q, request %d: oracle staged=%v (status %d), codec staged=%v (status %d)",
				in, i, w.req != nil, w.status, g.req != nil, g.status)
		}
		if w.req == nil {
			if g.status != 0 && w.status != g.status {
				t.Fatalf("input %q, request %d: oracle refused with %d, codec with %d", in, i, w.status, g.status)
			}
			return
		}
		if w.req.Method != g.req.Method || !reflect.DeepEqual(*w.req.URL, *g.req.URL) ||
			!reflect.DeepEqual(w.req.Header, g.req.Header) || !bytes.Equal(w.req.Body, g.req.Body) || w.keepAlive != g.keepAlive {
			t.Fatalf("input %q, request %d:\noracle %s %#v %v body %q keep-alive %v\ncodec  %s %#v %v body %q keep-alive %v",
				in, i, w.req.Method, *w.req.URL, w.req.Header, w.req.Body, w.keepAlive,
				g.req.Method, *g.req.URL, g.req.Header, g.req.Body, g.keepAlive)
		}
	}
}

// requestSeeds cover what the codec must agree with net/http on.
var requestSeeds = []string{
	"GET /index.html?a=1 HTTP/1.1\r\nHost: shop.example.org\r\nUser-Agent: t\r\n\r\n",
	// Pipelined pairs.
	"GET /a HTTP/1.1\r\nHost: h\r\n\r\nGET /b HTTP/1.1\r\nHost: h\r\nConnection: close\r\n\r\nGET /c HTTP/1.1\r\nHost: h\r\n\r\n",
	"POST /p HTTP/1.1\r\nHost: h\r\nContent-Length: 3\r\n\r\nabc\r\nGET /q HTTP/1.1\r\nHost: h\r\n\r\n",
	// HTTP/1.0 with and without keep-alive.
	"GET /old HTTP/1.0\r\n\r\nGET /never HTTP/1.0\r\n\r\n",
	"GET /old HTTP/1.0\r\nConnection: keep-alive\r\n\r\nGET /again HTTP/1.0\r\nConnection: Keep-Alive\r\nHost: h\r\n\r\n",
	"GET /old HTTP/1.0\r\nConnection: foo keep-alive\r\n\r\n",
	// Absolute-form targets.
	"GET http://Shop.Example.org:8080/x%20y?q#f HTTP/1.1\r\nHost: other\r\n\r\n",
	"GET https://user:pw@h/p HTTP/1.1\r\nHost: h\r\n\r\n",
	"CONNECT h:443 HTTP/1.1\r\nHost: h:443\r\n\r\n",
	"OPTIONS * HTTP/1.1\r\nHost: h\r\n\r\n",
	"GET /a/./b?x HTTP/1.1\r\nHost: h\r\n\r\n",
	"GET /a? HTTP/1.1\r\nHost: h\r\n\r\n",
	"GET /é HTTP/1.1\r\nHost: h\r\n\r\n",
	// Chunked bodies with trailers; Content-Length repeated or conflicting;
	// Transfer-Encoding with Content-Length.
	"POST /c HTTP/1.1\r\nHost: h\r\nTransfer-Encoding: chunked\r\nTrailer: X-Sum\r\n\r\n3;ext=1\r\nabc\r\n2\r\nde\r\n0\r\nX-Sum: 5\r\n\r\n",
	"POST /c HTTP/1.1\r\nHost: h\r\nTransfer-Encoding: chunked\r\n\r\n3\r\nabc\r\n0\r\n\r\nGET /n HTTP/1.1\r\nHost: h\r\n\r\n",
	"POST /c HTTP/1.1\r\nHost: h\r\nTransfer-Encoding: chunked\r\nTrailer: Content-Length\r\n\r\n0\r\n\r\n",
	"POST /c HTTP/1.1\r\nHost: h\r\nTransfer-Encoding: chunked\r\n\r\n3\r\nabcX\r\n0\r\n\r\n",
	"POST /c HTTP/1.1\r\nHost: h\r\nTransfer-Encoding: chunked\r\n\r\n1\nx\r\n0\r\n\r\n",
	"POST /c HTTP/1.1\r\nHost: h\r\nTransfer-Encoding: chunked\r\n\r\n1 \r\r\nx\r\n0\r\n\r\n",
	"POST /l HTTP/1.1\r\nHost: h\r\nContent-Length: 3\r\nContent-Length: 3\r\n\r\nabc",
	"POST /l HTTP/1.1\r\nHost: h\r\nContent-Length: 3\r\nContent-Length: 4\r\n\r\nabcd",
	"POST /l HTTP/1.1\r\nHost: h\r\nContent-Length: 3\r\nTransfer-Encoding: chunked\r\n\r\n3\r\nabc\r\n0\r\n\r\n",
	"POST /l HTTP/1.1\r\nHost: h\r\nTransfer-Encoding: gzip\r\n\r\n",
	"POST /l HTTP/1.0\r\nTransfer-Encoding: chunked\r\nContent-Length: 2\r\n\r\nab",
	"POST /l HTTP/1.1\r\nHost: h\r\nContent-Length: 5\r\n\r\nab",
	"POST /e HTTP/1.1\r\nHost: h\r\nExpect: 100-continue\r\nContent-Length: 2\r\n\r\nok",
	"GET /e HTTP/1.1\r\nHost: h\r\nExpect: something-else\r\n\r\n",
	// Host missing or repeated; obs-fold; bare \n line ends.
	"GET / HTTP/1.1\r\n\r\n",
	"GET / HTTP/1.1\r\nHost: a\r\nHost: b\r\n\r\n",
	"GET / HTTP/1.1\r\nHost: a b\r\n\r\n",
	"GET / HTTP/1.1\r\nHost: h\r\nX-Folded: a\r\n  b\r\n\r\n",
	"GET / HTTP/1.1\n\tHost: h\n\n",
	"GET /bare HTTP/1.1\nHost: h\nPragma: no-cache\n\n",
	"GET / HTTP/1.1\r\nHost: h\r\nBad Name: x\r\n\r\n",
	"GET / HTTP/1.1\r\nHost: h\r\nX: a\x01b\r\n\r\n",
	"GET / HTTP/2.0\r\nHost: h\r\n\r\n",
	"GET / HTTP/0.0\r\nTransfer-Encoding: gzip\r\n\r\n",
	"GET / HTTP/0.0\r\nTransfer-Encoding: chunked\r\nTrailer: Content-Length\r\n\r\n",
	"G@T / HTTP/1.1\r\nHost: h\r\n\r\n",
	"GET /\x7f HTTP/1.1\r\nHost: h\r\n\r\n",
	"\r\nGET / HTTP/1.1\r\nHost: h\r\n\r\n",
}

// headerPastLimit is a request whose head is well over MaxHeaderBytes.
func headerPastLimit() []byte {
	return []byte("GET / HTTP/1.1\r\nHost: h\r\nX-Big: " + strings.Repeat("a", MaxHeaderBytes+64<<10) + "\r\n\r\n")
}

// FuzzReadRequest holds the codec to net/http's server: on every input
// both stage the same requests (method, URL, header, body, keep-alive) in
// the same order, or both refuse, and the codec never stages what the
// server refuses. The exceptions are the codec's stricter refusals (see
// compareOutcomes).
func FuzzReadRequest(f *testing.F) {
	for _, s := range requestSeeds {
		f.Add([]byte(s))
	}
	f.Add(headerPastLimit())
	o := newOracle(f)
	f.Fuzz(func(t *testing.T, in []byte) {
		want, ok := o.exchange(t, in)
		if !ok {
			t.Skip("connection reset; the server's replies may be lost")
		}
		compareOutcomes(t, in, want, readAll(in))
	})
}

func TestReadRequestRefusals(t *testing.T) {
	cases := []struct {
		in     string
		status int
		reason Reason
	}{
		{"GET /\r\n\r\n", 400, ReasonRequestLine},
		{"GET / HTTP/9.9\r\nHost: h\r\n\r\n", 505, ReasonRequestLine},
		{"GET / HTTP/1.1\r\n\r\n", 400, ReasonHost},
		{"GET / HTTP/1.1\r\nHost: a\r\nHost: a\r\n\r\n", 400, ReasonHost},
		{"GET / HTTP/1.1\r\nHost: h\r\nX: a\r\n b\r\n\r\n", 400, ReasonHeader},
		{"GET / HTTP/1.1\r\nHost: h\r\nNo colon\r\n\r\n", 400, ReasonHeader},
		{"POST / HTTP/1.1\r\nHost: h\r\nContent-Length: 1\r\nContent-Length: 2\r\n\r\n", 400, ReasonHeader},
		{"POST / HTTP/1.1\r\nHost: h\r\nTransfer-Encoding: gzip, chunked\r\n\r\n", 501, ReasonTransferEncoding},
		{"POST / HTTP/1.1\r\nHost: h\r\nTransfer-Encoding: chunked\r\n\r\nzz\r\n", 400, ReasonTransferEncoding},
		// A chunk-size line ends in exactly CRLF (RFC 9112 errata 7633).
		{"POST / HTTP/1.1\r\nHost: h\r\nTransfer-Encoding: chunked\r\n\r\n1\nx\r\n0\r\n\r\n", 400, ReasonTransferEncoding},
		{"POST / HTTP/1.1\r\nHost: h\r\nTransfer-Encoding: chunked\r\n\r\n1\r\r\nx\r\n0\r\n\r\n", 400, ReasonTransferEncoding},
		{"POST / HTTP/1.1\r\nHost: h\r\nTransfer-Encoding: chunked\r\n\r\n1;a=\rb\r\nx\r\n0\r\n\r\n", 400, ReasonTransferEncoding},
		{"POST / HTTP/1.1\r\nHost: h\r\nTransfer-Encoding: chunked\r\n\r\n1\r\nx\r\n0\n\r\n", 400, ReasonTransferEncoding},
		{"GET / HTTP/1.1\r\nHost: h\r\nExpect: 200-ok\r\n\r\n", 417, ReasonExpect},
		{"POST / HTTP/1.1\r\nHost: h\r\nContent-Length: 8388609\r\n\r\n", 400, ReasonBodyTooLarge},
		{string(headerPastLimit()), 431, ReasonHeaderTooLarge},
	}
	for _, tc := range cases {
		c := NewHTTP1Conn(struct {
			io.Reader
			io.Writer
		}{strings.NewReader(tc.in), io.Discard})
		err := c.ReadRequest(&Request{Header: make(http.Header)}, testMaxBody)
		var re *RequestError
		if !errors.As(err, &re) || re.Status != tc.status || re.Reason != tc.reason {
			t.Errorf("%.60q: err %v, want %d %s", tc.in, err, tc.status, tc.reason)
		}
	}
}

// TestReadRequestBodyGrowsWithArrival: the body buffer grows with the
// bytes that arrive, not with what the client declares. A client that
// declares 8 MiB, by Content-Length or by a chunk size, and sends ten bytes
// before closing costs at most 4 KiB; a body that does arrive is read
// whole.
func TestReadRequestBodyGrowsWithArrival(t *testing.T) {
	const head = "POST /upload HTTP/1.1\r\nHost: h\r\n"
	big := strings.Repeat("0123456789abcdef", 20<<10) // 320 KiB, over many reads
	for _, c := range []struct {
		name     string
		in       string
		want     string // the staged body; "" when the request must fail
		maxAlloc uint64 // 0: unchecked
	}{
		{name: "declared 8 MiB, sends 10 bytes and closes", in: head + "Content-Length: 8388608\r\n\r\n0123456789", maxAlloc: 4 << 10},
		{name: "chunk of 8 MiB, sends 10 bytes and closes", in: head + "Transfer-Encoding: chunked\r\n\r\n7fffff\r\n0123456789", maxAlloc: 4 << 10},
		{name: "declared and sent", in: head + "Content-Length: " + strconv.Itoa(len(big)) + "\r\n\r\n" + big, want: big},
		{name: "chunked and sent", in: head + "Transfer-Encoding: chunked\r\n\r\n" + strconv.FormatInt(int64(len(big)-3), 16) + "\r\n" + big[3:] + "\r\n3\r\n" + big[:3] + "\r\n0\r\n\r\n", want: big[3:] + big[:3]},
	} {
		// A reader that hands out a few bytes at a time, as a socket does.
		c1 := NewHTTP1Conn(struct {
			io.Reader
			io.Writer
		}{iotest.HalfReader(strings.NewReader(c.in)), io.Discard})
		req := &Request{Header: make(http.Header)}
		var err error
		n := allocated(func() { err = c1.ReadRequest(req, testMaxBody) })
		switch {
		case c.want == "" && err == nil:
			t.Errorf("%s: staged a %d-byte body", c.name, len(req.Body))
		case c.want != "" && err != nil:
			t.Errorf("%s: %v", c.name, err)
		case c.want != "" && string(req.Body) != c.want:
			t.Errorf("%s: body of %d bytes differs from the %d sent", c.name, len(req.Body), len(c.want))
		}
		if c.maxAlloc > 0 && n > c.maxAlloc {
			t.Errorf("%s: reading allocated %d bytes, want at most %d", c.name, n, c.maxAlloc)
		}
	}
}

// TestHeadLimitBoundary: a head of exactly MaxHeaderBytes is read, one
// byte more is refused.
func TestHeadLimitBoundary(t *testing.T) {
	for _, extra := range []int{0, 1} {
		prefix, suffix := "GET / HTTP/1.1\r\nHost: h\r\nX: ", "\r\n\r\n"
		in := prefix + strings.Repeat("a", MaxHeaderBytes-len(prefix)-len(suffix)+extra) + suffix
		c := NewHTTP1Conn(struct {
			io.Reader
			io.Writer
		}{strings.NewReader(in), io.Discard})
		err := c.ReadRequest(&Request{Header: make(http.Header)}, testMaxBody)
		if (err == nil) != (extra == 0) {
			t.Errorf("head of MaxHeaderBytes+%d: err %v", extra, err)
		}
	}
}

// TestWriteHTTP1MatchesWriteToMethod pins the two writers together: the
// bytes WriteHTTP1 sends parse to the status, headers and body that
// net/http's server sends for WriteToMethod (ServeHTTP's writer), Date
// aside. The reference is a real server rather than an
// httptest.ResponseRecorder: the recorder neither sniffs a Content-Type
// after an explicit WriteHeader nor drops a 304's Content-Length, and the
// server does both.
func TestWriteHTTP1MatchesWriteToMethod(t *testing.T) {
	large := make([]byte, 3<<20)
	for i := range large {
		large[i] = byte(i * 7)
	}
	html := func() *Response { return NewHTMLResponse(200, "<html><p>hi</p></html>") }
	untyped := func() *Response {
		r := NewResponse(200)
		r.SetBodyString("<!DOCTYPE html><title>sniff me</title>")
		return r
	}
	streamed := func() *Response {
		r := NewResponse(200)
		r.SetStream(&memStream{data: large})
		return r
	}
	notModified := func() *Response {
		r := NewResponse(304)
		r.Header.Set("Content-Length", "22")
		r.Header.Set("Etag", `"v1"`)
		return r
	}
	cases := []struct {
		name, method, rangeHdr string
		resp                   func() *Response
	}{
		{"GET typed", "GET", "", html},
		{"GET sniffed", "GET", "", untyped},
		{"HEAD untyped", "HEAD", "", untyped},
		{"204", "GET", "", func() *Response { return NewResponse(204) }},
		{"304 keeps its length", "GET", "", notModified},
		{"206 whole body", "GET", "bytes=6-9", html},
		{"416", "GET", "bytes=100-", html},
		{"streamed large object", "GET", "", streamed},
		{"streamed 206", "GET", "bytes=1000000-2000000", streamed},
		{"HEAD streamed", "HEAD", "", streamed},
	}
	var current func() *Response
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req := &Request{Method: r.Method, Header: r.Header}
		ApplyRange(req, current()).WriteToMethod(w, r.Method)
	}))
	defer srv.Close()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			in := tc.method + " / HTTP/1.1\r\nHost: h\r\n"
			if tc.rangeHdr != "" {
				in += "Range: " + tc.rangeHdr + "\r\n"
			}
			var wire bytes.Buffer
			c := NewHTTP1Conn(struct {
				io.Reader
				io.Writer
			}{strings.NewReader(in + "\r\n"), &wire})
			req := &Request{Header: make(http.Header)}
			if err := c.ReadRequest(req, testMaxBody); err != nil {
				t.Fatal(err)
			}
			if err := ApplyRange(req, tc.resp()).WriteHTTP1(c, req.Method); err != nil {
				t.Fatal(err)
			}
			got, err := http.ReadResponse(bufio.NewReader(&wire), &http.Request{Method: tc.method})
			if err != nil {
				t.Fatal(err)
			}
			gotBody, err := io.ReadAll(got.Body)
			if err != nil {
				t.Fatal(err)
			}
			if got.Header.Get("Date") == "" {
				t.Error("no Date header")
			}
			got.Header.Del("Date")

			current = tc.resp
			hr, err := http.NewRequest(tc.method, srv.URL, nil)
			if err != nil {
				t.Fatal(err)
			}
			if tc.rangeHdr != "" {
				hr.Header.Set("Range", tc.rangeHdr)
			}
			want, err := srv.Client().Do(hr)
			if err != nil {
				t.Fatal(err)
			}
			wantBody, err := io.ReadAll(want.Body)
			want.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			want.Header.Del("Date")
			if got.StatusCode != want.StatusCode || !reflect.DeepEqual(got.Header, want.Header) || !bytes.Equal(gotBody, wantBody) {
				t.Fatalf("WriteHTTP1: %d %v body %d bytes\nnet/http: %d %v body %d bytes",
					got.StatusCode, got.Header, len(gotBody), want.StatusCode, want.Header, len(wantBody))
			}
			if wire.Len() != 0 {
				t.Errorf("%d bytes after the response", wire.Len())
			}
		})
	}
}

// TestWriteHTTP1ConnectionHeader: a closing HTTP/1.1 connection says so,
// an HTTP/1.0 connection kept open says keep-alive, and a response's own
// Connection: close closes the connection.
func TestWriteHTTP1ConnectionHeader(t *testing.T) {
	cases := []struct {
		in, respConn, wantConn string
		keep                   bool
	}{
		{"GET / HTTP/1.1\r\nHost: h\r\n\r\n", "", "", true},
		{"GET / HTTP/1.1\r\nHost: h\r\nConnection: close\r\n\r\n", "", "close", false},
		{"GET / HTTP/1.1\r\nHost: h\r\n\r\n", "close", "close", false},
		{"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n", "", "keep-alive", true},
		{"GET / HTTP/1.0\r\n\r\n", "", "", false},
	}
	for _, tc := range cases {
		var wire bytes.Buffer
		c := NewHTTP1Conn(struct {
			io.Reader
			io.Writer
		}{strings.NewReader(tc.in), &wire})
		req := &Request{Header: make(http.Header)}
		if err := c.ReadRequest(req, testMaxBody); err != nil {
			t.Fatal(err)
		}
		resp := NewTextResponse(200, "x")
		if tc.respConn != "" {
			resp.Header.Set("Connection", tc.respConn)
		}
		if err := resp.WriteHTTP1(c, req.Method); err != nil {
			t.Fatal(err)
		}
		got, err := http.ReadResponse(bufio.NewReader(&wire), nil)
		if err != nil {
			t.Fatal(err)
		}
		if conn := wireHeader(got, "Connection"); conn != tc.wantConn || c.KeepAlive != tc.keep {
			t.Errorf("%q: Connection %q keep-alive %v, want %q %v", tc.in, conn, c.KeepAlive, tc.wantConn, tc.keep)
		}
	}
}

// wireHeader reads a header ReadResponse may have consumed (it deletes
// Connection: close).
func wireHeader(resp *http.Response, key string) string {
	if v := resp.Header.Get(key); v != "" {
		return v
	}
	if key == "Connection" && resp.Close && resp.ProtoAtLeast(1, 1) {
		return "close"
	}
	return ""
}
