package httpmsg

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"
)

// responseOutcome is what reading one response came to: the final
// response's status, header and body and whether the connection may carry
// another request, or a refusal.
type responseOutcome struct {
	status    int
	header    http.Header
	body      []byte
	keepAlive bool
	refused   bool
	// stricter marks a refusal where net/http may accept: obs-fold, a
	// chunk-size line not ending in CRLF, a head over MaxHeaderBytes.
	stricter bool
}

// oracleResponse reads in as net/http's Transport reads the response to a
// request with method: http.ReadResponse over a 4 KiB reader, interim 1xx
// replies skipped (101 is final), the body read to its end, and the
// connection kept for another request when the response does not close it
// and its status is final.
func oracleResponse(in []byte, method string) responseOutcome {
	br := bufio.NewReaderSize(bytes.NewReader(in), 4<<10)
	for {
		resp, err := http.ReadResponse(br, &http.Request{Method: method})
		if err != nil {
			return responseOutcome{refused: true}
		}
		if resp.StatusCode >= 100 && resp.StatusCode <= 199 && resp.StatusCode != http.StatusSwitchingProtocols {
			continue
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			return responseOutcome{refused: true}
		}
		return responseOutcome{status: resp.StatusCode, header: resp.Header, body: body, keepAlive: !resp.Close && resp.StatusCode >= 200}
	}
}

// codecResponse reads in with ReadResponse, and the body whole (ReadBody)
// or as a stream (Read).
func codecResponse(in []byte, method string, stream bool) responseOutcome {
	c := NewClientConn(struct {
		io.Reader
		io.Writer
	}{bytes.NewReader(in), io.Discard})
	resp, err := c.ReadResponse(method)
	var body []byte
	if err == nil {
		if stream {
			body, err = io.ReadAll(c)
		} else {
			body, err = c.ReadBody()
		}
	}
	if err != nil {
		var re *RequestError
		stricter := errors.As(err, &re) && (re.msg == errObsFold || re.msg == errChunkLineEnd || re.Reason == ReasonHeaderTooLarge)
		return responseOutcome{refused: true, stricter: stricter}
	}
	return responseOutcome{status: resp.Status, header: resp.Header, body: body, keepAlive: c.KeepAlive}
}

// compareResponses checks the codec against the oracle on one input: both
// read the same status, header, body and keep-alive, or both refuse. Where
// the codec is stricter it may refuse what the oracle reads.
func compareResponses(t *testing.T, in []byte, method string, want, got responseOutcome) {
	t.Helper()
	switch {
	case got.stricter:
	case want.refused != got.refused:
		t.Fatalf("%s response %q: net/http refused %v, codec refused %v", method, in, want.refused, got.refused)
	case !want.refused && (want.status != got.status || !reflect.DeepEqual(want.header, got.header) ||
		!bytes.Equal(want.body, got.body) || want.keepAlive != got.keepAlive):
		t.Fatalf("%s response %q:\nnet/http %d %v body %q keep-alive %v\ncodec    %d %v body %q keep-alive %v",
			method, in, want.status, want.header, want.body, want.keepAlive, got.status, got.header, got.body, got.keepAlive)
	}
}

// responseSeeds cover what the codec must agree with net/http on.
var responseSeeds = []string{
	"HTTP/1.1 200 OK\r\nContent-Type: text/html\r\nContent-Length: 5\r\n\r\nhello",
	// Chunked bodies with trailers; malformed chunked framing.
	"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\nTrailer: X-Sum\r\n\r\n3;ext=1\r\nabc\r\n2\r\nde\r\n0\r\nX-Sum: 5\r\n\r\n",
	"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\nTrailer: Content-Length\r\n\r\n0\r\n\r\n",
	"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n1\nx\r\n0\r\n\r\n",
	"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n3\r\nabcX\r\n0\r\n\r\n",
	// Transfer-Encoding with Content-Length; Content-Length repeated.
	"HTTP/1.1 200 OK\r\nContent-Length: 7\r\nTransfer-Encoding: chunked\r\n\r\n3\r\nabc\r\n0\r\n\r\n",
	"HTTP/1.1 200 OK\r\nContent-Length: 3\r\nContent-Length: 3\r\n\r\nabc",
	"HTTP/1.1 200 OK\r\nContent-Length: 3\r\nContent-Length: 4\r\n\r\nabcd",
	"HTTP/1.1 200 OK\r\nContent-Length: +3\r\n\r\nabc",
	"HTTP/1.1 200 OK\r\nTransfer-Encoding: gzip, chunked\r\n\r\n",
	// HTTP/1.0 with and without keep-alive; other versions; closing 1.1.
	"HTTP/1.0 200 OK\r\nContent-Length: 2\r\n\r\nok",
	"HTTP/1.0 200 OK\r\nConnection: Keep-Alive\r\nContent-Length: 2\r\n\r\nok",
	"HTTP/1.0 200 OK\r\nTransfer-Encoding: chunked\r\nContent-Length: 2\r\n\r\nok",
	"HTTP/1.1 200 OK\r\nConnection: keep-alive, close\r\nContent-Length: 2\r\n\r\nok",
	"HTTP/0.0 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n",
	"HTTP/2.0 200 OK\r\nContent-Length: 2\r\n\r\nok",
	// A close-delimited body.
	"HTTP/1.1 200 OK\r\nContent-Type: text/plain\r\n\r\nread until the connection closes",
	// Interim replies before the final one; 101 is final.
	"HTTP/1.1 100 Continue\r\n\r\nHTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok",
	"HTTP/1.1 103 Early Hints\r\nLink: </s.css>\r\n\r\nHTTP/1.1 100 Continue\r\n\r\nHTTP/1.1 404 Not Found\r\nContent-Length: 0\r\n\r\n",
	"HTTP/1.1 101 Switching Protocols\r\nUpgrade: websocket\r\nConnection: Upgrade\r\n\r\n",
	// No body, whatever the framing says.
	"HTTP/1.1 204 No Content\r\nContent-Length: 10\r\n\r\n",
	"HTTP/1.1 304 Not Modified\r\nContent-Length: 10\r\nEtag: \"v1\"\r\n\r\n",
	"HTTP/1.1 304 Not Modified\r\nTransfer-Encoding: chunked\r\nContent-Length: 10\r\n\r\n",
	// Status lines.
	"HTTP/1.1 302 Found\r\nLocation: /b\r\nContent-Length: 0\r\n\r\n",
	"HTTP/1.1 +20 odd\r\nContent-Length: 0\r\n\r\n",
	"HTTP/1.1 -00\r\n\r\n",
	"HTTP/1.1 2000 OK\r\n\r\n",
	"HTTP/1.1   200   OK\r\nContent-Length: 0\r\n\r\n",
	"HTTP/1.1\r\n\r\n",
	// Header lines: bare \n line ends, obs-fold, names and values.
	"HTTP/1.1 200 OK\nPragma: no-cache\nContent-Length: 1\n\nx",
	"HTTP/1.1 200 OK\r\nX-Folded: a\r\n  b\r\nContent-Length: 0\r\n\r\n",
	"HTTP/1.1 200 OK\r\nBad Name: x\r\nContent-Length: 0\r\n\r\n",
	"HTTP/1.1 200 OK\r\nX: a\x01b\r\n\r\n",
	// A body shorter than declared.
	"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nshort",
}

// FuzzReadResponse holds the client codec to http.ReadResponse: on every
// input, for GET and for HEAD, both read the same final response (status,
// header, body, keep-alive) or both refuse, with the body read whole and
// as a stream alike. The exceptions are the codec's stricter refusals
// (responseOutcome.stricter).
func FuzzReadResponse(f *testing.F) {
	for _, s := range responseSeeds {
		f.Add([]byte(s), false)
		f.Add([]byte(s), true)
	}
	f.Add([]byte("HTTP/1.1 200 OK\r\nX-Big: "+strings.Repeat("a", MaxHeaderBytes)+"\r\nContent-Length: 0\r\n\r\n"), false)
	f.Fuzz(func(t *testing.T, in []byte, head bool) {
		method := http.MethodGet
		if head {
			method = http.MethodHead
		}
		want := oracleResponse(in, method)
		compareResponses(t, in, method, want, codecResponse(in, method, false))
		compareResponses(t, in, method, want, codecResponse(in, method, true))
	})
}

// TestWriteRequest: the bytes WriteRequest sends read back with
// http.ReadRequest as what net/http's client sent for the same request:
// origin form, Host, the end-to-end headers only, Content-Length with a
// body and for POST, PUT and PATCH, and a default User-Agent.
func TestWriteRequest(t *testing.T) {
	const ua = "Go-http-client/1.1"
	cases := []struct {
		name, method, url string
		header            http.Header // set on the request
		body              string
		target, host      string
		want              http.Header // what http.ReadRequest reads, Host aside
	}{
		{
			name: "strips Connection tokens", method: "GET", url: "http://example.org/x",
			header: http.Header{"Connection": {"x-internal-token, close"}, "X-Internal-Token": {"secret"}, "X-Forwarded-Ok": {"yes"}, "Keep-Alive": {"timeout=5"}},
			target: "/x", host: "example.org",
			want: http.Header{"User-Agent": {ua}, "X-Forwarded-Ok": {"yes"}},
		},
		{
			name: "GET without a body", method: "GET", url: "http://example.org/x",
			target: "/x", host: "example.org", want: http.Header{"User-Agent": {ua}},
		},
		{
			name: "POST with a body", method: "POST", url: "http://example.org/x", body: "payload",
			target: "/x", host: "example.org", want: http.Header{"User-Agent": {ua}, "Content-Length": {"7"}},
		},
		{
			name: "POST without a body", method: "POST", url: "http://example.org/form",
			target: "/form", host: "example.org", want: http.Header{"User-Agent": {ua}, "Content-Length": {"0"}},
		},
		{
			name: "DELETE without a body", method: "DELETE", url: "http://example.org/item",
			target: "/item", host: "example.org", want: http.Header{"User-Agent": {ua}},
		},
		{
			name: "the client's User-Agent", method: "GET", url: "http://example.org/",
			header: http.Header{"User-Agent": {"edge-test/1"}, "Accept": {"*/*", "text/html"}},
			target: "/", host: "example.org", want: http.Header{"User-Agent": {"edge-test/1"}, "Accept": {"*/*", "text/html"}},
		},
		{
			name: "an empty User-Agent", method: "GET", url: "http://example.org/",
			header: http.Header{"User-Agent": {""}},
			target: "/", host: "example.org", want: http.Header{},
		},
		{
			name: "escaped path, port and query", method: "GET", url: "http://example.org:8080/a%20b/c?q=1&r",
			target: "/a%20b/c?q=1&r", host: "example.org:8080", want: http.Header{"User-Agent": {ua}},
		},
		{
			name: "empty path and forced query", method: "GET", url: "http://example.org?",
			target: "/?", host: "example.org", want: http.Header{"User-Agent": {ua}},
		},
		{
			name: "hop-by-hop and framing headers", method: "GET", url: "http://example.org/h",
			header: http.Header{"Te": {"trailers"}, "Trailer": {"X"}, "Transfer-Encoding": {"chunked"}, "Upgrade": {"h2c"},
				"Proxy-Authorization": {"Basic eA=="}, "Content-Length": {"99"}, "Host": {"other.example"}, "X-End": {"kept"}},
			target: "/h", host: "example.org", want: http.Header{"User-Agent": {ua}, "X-End": {"kept"}},
		},
		{
			name: "line breaks in a value", method: "GET", url: "http://example.org/v",
			header: http.Header{"X-Multi": {" a\r\nb "}},
			target: "/v", host: "example.org", want: http.Header{"User-Agent": {ua}, "X-Multi": {"a  b"}},
		},
		{
			name: "IPv6 zone dropped", method: "GET", url: "http://[fe80::1%25en0]:8080/z",
			target: "/z", host: "[fe80::1]:8080", want: http.Header{"User-Agent": {ua}},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req := MustRequest(tc.method, tc.url)
			for k, vs := range tc.header {
				req.Header[k] = vs
			}
			req.Body = []byte(tc.body)
			var wire bytes.Buffer
			c := NewClientConn(struct {
				io.Reader
				io.Writer
			}{strings.NewReader(""), &wire})
			if err := c.WriteRequest(req); err != nil {
				t.Fatal(err)
			}
			got, err := http.ReadRequest(bufio.NewReader(&wire))
			if err != nil {
				t.Fatal(err)
			}
			body, err := io.ReadAll(got.Body)
			if err != nil {
				t.Fatal(err)
			}
			if got.Method != tc.method || got.RequestURI != tc.target || got.Host != tc.host ||
				!reflect.DeepEqual(got.Header, tc.want) || string(body) != tc.body {
				t.Errorf("sent %s %s Host %q %v body %q\nwant %s %s Host %q %v body %q",
					got.Method, got.RequestURI, got.Host, got.Header, body, tc.method, tc.target, tc.host, tc.want, tc.body)
			}
			if wire.Len() != 0 {
				t.Errorf("%d bytes after the request", wire.Len())
			}
		})
	}
}

// TestHTTPConversion: a request and its response make a round trip through
// the client codec and a live net/http server, twice on one connection.
func TestHTTPConversion(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get("X-Forwarded-Test") != "yes" {
			t.Error("header not forwarded")
		}
		if r.Header.Get("Connection") != "" {
			t.Error("hop-by-hop header forwarded")
		}
		w.Header().Set("Content-Type", "text/plain")
		w.Header().Set("Cache-Control", "max-age=60")
		w.WriteHeader(200)
		if _, err := w.Write([]byte("origin content")); err != nil {
			t.Error(err)
		}
	}))
	defer srv.Close()

	req := MustRequest("GET", srv.URL+"/resource")
	req.Header.Set("X-Forwarded-Test", "yes")
	req.Header.Set("Connection", "keep-alive") // hop-by-hop: must be dropped
	conn, err := net.Dial("tcp", srv.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	c := NewClientConn(conn)
	for i := 0; i < 2; i++ {
		if err := c.WriteRequest(req); err != nil {
			t.Fatal(err)
		}
		resp, err := c.ReadResponse(req.Method)
		if err != nil {
			t.Fatal(err)
		}
		body, err := c.ReadBody()
		if err != nil {
			t.Fatal(err)
		}
		if resp.Status != 200 || string(body) != "origin content" || !c.Reusable() {
			t.Errorf("exchange %d: %d %q, reusable %v", i, resp.Status, body, c.Reusable())
		}
		if fresh, _ := FreshFor(resp.Header, time.Now()); fresh != 60*time.Second {
			t.Error("cache-control lost in conversion")
		}
	}
}
