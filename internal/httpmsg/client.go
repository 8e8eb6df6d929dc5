package httpmsg

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/textproto"
	"net/url"
	"slices"
	"strconv"
	"strings"
)

// The client half of the HTTP/1.x codec: the node's requests to origins.
// WriteRequest sends a request the way net/http's client sent the
// pipeline's requests before this codec, and ReadResponse reads what
// http.ReadResponse reads, through the server half's head scanner, header
// rules and chunked reader (http1.go). It is stricter than net/http where
// the server half is, on obs-fold and on a chunk-size line not ending in
// CRLF, and it refuses a head over MaxHeaderBytes, where net/http's
// Transport allows 10 MB. FuzzReadResponse holds the reader to
// http.ReadResponse. As on the server side, a fix to net/http's response
// reading (its response.go, transfer.go and internal/chunked.go) must be
// carried over to this file by hand.

// userAgent is the User-Agent of a request that has none, net/http's.
const userAgent = "Go-http-client/1.1"

// bodyFraming is how the body of the response being read ends.
type bodyFraming uint8

const (
	noBody      bodyFraming = iota // no body, or the body has been read
	lengthBody                     // Content-Length: left bytes still to come
	chunkedBody                    // the chunked transfer coding
	closeBody                      // the server closes the connection after it
	heldBody                       // a chunked body read whole: held is what Read has not handed out
)

// ClientConn is the client side of one HTTP/1.x connection to an origin.
// It is not safe for concurrent use: it carries one exchange at a time,
// WriteRequest, then ReadResponse, then the body by ReadBody or Read.
type ClientConn struct {
	// KeepAlive reports whether the connection may carry another request
	// once the body of the last response has been read. ReadResponse sets
	// it from the response's version, Connection header, status and
	// framing, as net/http's Transport decides; it is false after an error.
	KeepAlive bool

	msgReader
	w       io.Writer
	framing bodyFraming
	left    int64
	held    []byte

	// Reused across requests: the request head and the buffers of its one
	// write.
	out  []byte
	bufs [2][]byte
	wbuf net.Buffers
}

// NewClientConn returns the client codec for a connection.
func NewClientConn(rw io.ReadWriter) *ClientConn {
	return &ClientConn{msgReader: newMsgReader(rw), w: rw}
}

// WriteRequest sends req in origin form, its head and body in one write:
// the request line, Host (URL.Host without an IPv6 zone, or empty when it
// is not a valid Host value), a User-Agent (userAgent when req has none,
// none when req's is empty), Content-Length with a body and for POST, PUT
// and PATCH, and the rest of req's headers but the hop-by-hop ones
// (forwarded). Values are trimmed and their line breaks blanked, as
// net/http writes them.
func (c *ClientConn) WriteRequest(req *Request) error {
	method := req.Method
	if method == "" {
		method = http.MethodGet
	}
	if !isToken(method) {
		return fmt.Errorf("httpmsg: invalid method %q", method)
	}
	b := append(append(c.out[:0], method...), ' ')
	target := len(b)
	b = appendRequestURI(b, req.URL)
	for _, ch := range b[target:] {
		if ch < ' ' || ch == 0x7f {
			return errors.New("httpmsg: control character in request target")
		}
	}
	host := req.URL.Host
	if !validHost(host) {
		host = ""
	}
	b = append(b, " HTTP/1.1\r\nHost: "...)
	b = append(append(b, removeZone(host)...), "\r\n"...)
	h := req.Header
	if !h.Has("User-Agent") {
		b = append(b, "User-Agent: "+userAgent+"\r\n"...)
	} else if ua := h.Get("User-Agent"); ua != "" {
		b = appendField(b, "User-Agent", ua)
	}
	if n := len(req.Body); n > 0 || method == http.MethodPost || method == http.MethodPut || method == http.MethodPatch {
		b = strconv.AppendInt(append(b, "Content-Length: "...), int64(n), 10)
		b = append(b, "\r\n"...)
	}
	h.Each(func(k, v string) {
		if forwarded(h, k) {
			b = appendField(b, k, v)
		}
	})
	b = append(b, "\r\n"...)
	c.out = b

	var err error
	if len(req.Body) == 0 {
		_, err = c.w.Write(b)
	} else {
		c.wbuf = append(net.Buffers(c.bufs[:0]), b, req.Body)
		_, err = c.wbuf.WriteTo(c.w)
	}
	if err != nil {
		c.KeepAlive = false
	}
	return err
}

// forwarded reports whether WriteRequest sends header k of h: a valid name,
// not one it writes itself, not hop-by-hop (RFC 9110 §7.6.1), and not named
// by the Connection header.
func forwarded(h Header, k string) bool {
	switch textproto.CanonicalMIMEHeaderKey(k) {
	case "Host", "User-Agent", "Content-Length",
		"Connection", "Keep-Alive", "Proxy-Authenticate", "Proxy-Authorization", "Te", "Trailer", "Transfer-Encoding", "Upgrade":
		return false
	}
	return isToken(k) && !h.anyElement("Connection", func(name string) bool { return asciiEqualFold(name, k) })
}

// appendRequestURI appends u.RequestURI() without building the string.
func appendRequestURI(b []byte, u *url.URL) []byte {
	if u.Opaque != "" {
		if strings.HasPrefix(u.Opaque, "//") {
			b = append(append(b, u.Scheme...), ':')
		}
		b = append(b, u.Opaque...)
	} else if path := u.EscapedPath(); path != "" {
		b = append(b, path...)
	} else {
		b = append(b, '/')
	}
	if u.ForceQuery || u.RawQuery != "" {
		b = append(append(b, '?'), u.RawQuery...)
	}
	return b
}

// removeZone drops the zone of an IPv6 literal from a Host value, as
// RFC 6874 asks of a client and net/http does.
func removeZone(host string) string {
	if !strings.HasPrefix(host, "[") {
		return host
	}
	i := strings.LastIndex(host, "]")
	if i < 0 {
		return host
	}
	j := strings.LastIndex(host[:i], "%")
	if j < 0 {
		return host
	}
	return host[:j] + host[i:]
}

// Await blocks until the response begins to arrive, and otherwise returns
// the read's error. A request whose Await failed got no answer, so a caller
// may send it again on another connection when that is safe.
func (c *ClientConn) Await() error {
	_, err := c.br.Peek(1)
	if err != nil {
		c.KeepAlive = false
	}
	return err
}

// ReadResponse reads the head of the response to a request with the given
// method, past any interim 1xx reply (101 Switching Protocols is final, as
// in net/http); the heads read total at most MaxHeaderBytes. The header is
// what http.ReadResponse builds: canonical keys; Transfer-Encoding dropped,
// and with a chunked body Content-Length and Trailer too; repeats of one
// Content-Length collapsed; an HTTP/1.1 Connection: close dropped;
// Cache-Control: no-cache added beside a Pragma: no-cache.
//
// The body follows, read by ReadBody or Read, framed as RFC 9112 §6.3 says:
// none for a response to HEAD or with status 1xx, 204 or 304; else chunked
// when Transfer-Encoding says so (from HTTP/1.1 on); else Content-Length;
// else all the connection carries until it closes.
func (c *ClientConn) ReadResponse(method string) (*Response, error) {
	c.KeepAlive, c.framing, c.held = false, noBody, nil
	budget := MaxHeaderBytes
	for {
		n, err := c.readHead(budget)
		if err != nil {
			return nil, noEOF(err)
		}
		budget -= n
		resp, err := c.parseResponse(method)
		if err != nil || resp.Status < 100 || resp.Status > 199 || resp.Status == http.StatusSwitchingProtocols {
			return resp, err
		}
	}
}

// parseResponse reads the head readHead read as a response to method, and
// sets the body's framing and KeepAlive.
func (c *ClientConn) parseResponse(method string) (*Response, error) {
	// The status line as http.ReadResponse cuts it: the version up to the
	// first space, then the code up to the next.
	line := c.head[c.lines[0]:c.lines[1]]
	sp := bytes.IndexByte(line, ' ')
	if sp < 0 {
		return nil, errors.New("httpmsg: malformed status line")
	}
	code := bytes.TrimLeft(line[sp+1:], " ")
	if i := bytes.IndexByte(code, ' '); i >= 0 {
		code = code[:i]
	}
	status, ok := parseStatus(code)
	if !ok {
		return nil, fmt.Errorf("httpmsg: malformed status code %q", code)
	}
	major, minor, ok := parseVersion(line[:sp])
	if !ok {
		return nil, errors.New("httpmsg: malformed HTTP version")
	}
	// A header name with a space in it passes, uncanonicalized, as in
	// net/textproto: only a server refuses it.
	if _, err := c.scanFields(); err != nil {
		return nil, err
	}
	resp := &Response{Status: status}
	h := &resp.Header
	n := c.header()
	*h = Header{enc: string(c.enc[:n])}
	fixPragma(h)

	// Keep-alive, as net/http's shouldClose reads it.
	closing := major < 1
	if !closing {
		hasClose := h.anyElement("Connection", isClose)
		closing = hasClose
		if major == 1 && minor == 0 {
			closing = hasClose || !h.anyElement("Connection", isKeepAlive)
		} else if hasClose {
			h.Del("Connection")
		}
	}
	if major == 0 && minor == 0 {
		major, minor = 1, 1 // net/http frames an HTTP/0.0 message as HTTP/1.1's
	}
	chunked := false
	if h.Has("Transfer-Encoding") {
		te := h.Values("Transfer-Encoding")
		h.Del("Transfer-Encoding")
		if major > 1 || major == 1 && minor >= 1 {
			if len(te) != 1 || !asciiEqualFold(te[0], "chunked") {
				return nil, fmt.Errorf("httpmsg: unsupported transfer encoding %q", te)
			}
			chunked = true
		}
	}
	length, err := contentLength(h)
	if err != nil {
		return nil, err
	}
	if err := checkTrailer(h, chunked); err != nil {
		return nil, err
	}
	switch {
	case method == http.MethodHead || bodyless(status):
	case chunked:
		h.Del("Content-Length")
		c.framing = chunkedBody
	case length > 0:
		c.framing, c.left = lengthBody, length
	case length < 0:
		c.framing, closing = closeBody, true
	}
	c.KeepAlive = !closing && status >= 200
	return resp, nil
}

// parseStatus reads a status code as http.ReadResponse does: three bytes
// strconv.Atoi reads as a number of at least zero, so "+20" is 20 and
// "-00" is 0.
func parseStatus(b []byte) (int, bool) {
	if len(b) != 3 {
		return 0, false
	}
	digits, neg := b, false
	if b[0] == '+' || b[0] == '-' {
		digits, neg = b[1:], b[0] == '-'
	}
	n := 0
	for _, d := range digits {
		if d < '0' || d > '9' {
			return 0, false
		}
		n = n*10 + int(d-'0')
	}
	return n, !neg || n == 0
}

// BodyLength is the length of the body ReadResponse framed: what
// Content-Length declared, 0 when there is no body, -1 when it ends with
// the chunked coding or with the connection.
func (c *ClientConn) BodyLength() int64 {
	switch c.framing {
	case noBody:
		return 0
	case lengthBody:
		return c.left
	}
	return -1
}

// Reusable reports whether the connection may carry the next request now:
// KeepAlive, the body read to its end, and no bytes after it, which would
// answer no request.
func (c *ClientConn) Reusable() bool {
	return c.KeepAlive && c.framing == noBody && c.br.Buffered() == 0
}

// ReadBody reads the rest of the body whole: a body of declared length, or
// one that ends with the connection, through ReadWhole.
func (c *ClientConn) ReadBody() ([]byte, error) {
	var body []byte
	var err error
	switch c.framing {
	case lengthBody:
		body, err = ReadWhole(c.br, c.left)
	case chunkedBody:
		body, err = c.readChunked(math.MaxInt64 - 1)
	case closeBody:
		body, err = ReadWhole(c.br, -1)
	case heldBody:
		body = c.held
	}
	err = noEOF(err)
	c.endBody(err)
	return body, err
}

// Read reads the body as it arrives, for a caller that streams it, and
// returns io.EOF at its end, with the last bytes when it can. A chunked
// body is read whole at the first Read and handed out from memory.
func (c *ClientConn) Read(p []byte) (int, error) {
	switch c.framing {
	case lengthBody:
		n, err := c.br.Read(p[:min(int64(len(p)), c.left)])
		if c.left -= int64(n); c.left == 0 {
			c.endBody(nil)
			return n, io.EOF
		}
		if err != nil {
			err = noEOF(err)
			c.endBody(err)
		}
		return n, err
	case closeBody:
		n, err := c.br.Read(p)
		if err == io.EOF {
			c.endBody(nil)
		} else if err != nil {
			c.endBody(err)
		}
		return n, err
	case chunkedBody:
		body, err := c.readChunked(math.MaxInt64 - 1)
		if err != nil {
			// A chunked body cut short is an error, not the body's end.
			err = noEOF(err)
			c.endBody(err)
			return 0, err
		}
		c.framing, c.held = heldBody, body
		fallthrough
	case heldBody:
		n := copy(p, c.held)
		if c.held = c.held[n:]; len(c.held) == 0 {
			c.endBody(nil)
			return n, io.EOF
		}
		return n, nil
	}
	return 0, io.EOF
}

// endBody ends the body being read; after an error the connection carries
// nothing more.
func (c *ClientConn) endBody(err error) {
	c.framing, c.left, c.held = noBody, 0, nil
	if err != nil {
		c.KeepAlive = false
	}
}

// maxExactBody is the most a declared Content-Length buys before the body
// arrives. It covers the bodies the benchmark's workloads cache whole
// (SPECweb's class 0 and 1 files, up to 10 KiB, and the SIMM media, 64
// KiB), while an origin that declares more than it sends costs the node at
// most 64 KiB per miss in flight. Larger bodies below the large-object
// threshold (1 MiB in nakikad) grow as they arrive.
const maxExactBody = 64 << 10

// ReadWhole reads a response body whole from r: length bytes, or all that r
// holds up to io.EOF when length is -1 (unknown). A body declared no longer
// than maxExactBody is read into one buffer of exactly its length. A longer
// one, or one of unknown length, is read into a buffer that grows with the
// bytes that arrive, from maxExactBody or from 512 bytes. A body that ends
// before its declared length is io.ErrUnexpectedEOF.
func ReadWhole(r io.Reader, length int64) ([]byte, error) {
	limit, size := length, min(length, maxExactBody)
	if length < 0 {
		limit, size = math.MaxInt64, 512
	}
	body := make([]byte, 0, size)
	for int64(len(body)) < limit {
		if len(body) == cap(body) {
			body = slices.Grow(body, int(min(int64(len(body)), limit-int64(len(body)))))
		}
		n, err := r.Read(body[len(body):int(min(int64(cap(body)), limit))])
		body = body[:len(body)+n]
		if err == io.EOF && length < 0 {
			return body, nil
		}
		if err != nil && int64(len(body)) < limit {
			return nil, noEOF(err)
		}
	}
	return body, nil
}

func isKeepAlive(elem string) bool { return asciiEqualFold(elem, "keep-alive") }
