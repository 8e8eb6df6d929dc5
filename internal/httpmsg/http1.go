package httpmsg

import (
	"bufio"
	"bytes"
	"fmt"
	"hash/maphash"
	"io"
	"math"
	"net"
	"net/http"
	"net/textproto"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"nakika/internal/wire"
)

// The HTTP/1.x codec of the client port. A request is read in one pass
// over the connection's buffered reader straight into a pooled Request,
// and a response is written straight to the connection: its head is staged
// in a reused buffer and goes out with the body in one write. What the
// reader accepts is what net/http's server hands a handler, with two
// exceptions where it is stricter: a header folded over several lines
// (obs-fold) is refused rather than joined, as RFC 9112 §5.2 allows, and so
// is a chunk-size line that does not end in exactly CRLF, as net/http
// refuses it only since Go 1.23.8 and 1.24.2. FuzzReadRequest holds the two
// to that.
//
// The client port no longer gets net/http's reader with a toolchain
// upgrade: a security fix to net/http's request parsing (its server.go,
// transfer.go and internal/chunked.go, and net/textproto's reader) must be
// carried over to this file by hand.

// MaxHeaderBytes bounds a request's head: the request line, the header
// lines and the blank line that ends them, line ends included. It is
// net/http's default; a longer head is answered 431.
const MaxHeaderBytes = http.DefaultMaxHeaderBytes

// maxChunkLine bounds a chunk-size line, as net/http does.
const maxChunkLine = 4 << 10

// Reason says why the codec refused a request. It labels the node's
// nakika_ingress_rejected_total counter.
type Reason uint8

// The reasons a request is refused.
const (
	ReasonRequestLine      Reason = iota // malformed request line, method, target or version
	ReasonHeaderTooLarge                 // a head over MaxHeaderBytes
	ReasonHeader                         // a malformed header line, name or value, or Content-Length
	ReasonHost                           // Host missing on HTTP/1.1, repeated, or invalid
	ReasonBodyTooLarge                   // a body over the caller's limit
	ReasonTransferEncoding               // an unknown transfer coding, or malformed chunked framing
	ReasonExpect                         // an Expect other than 100-continue
	NumReasons
)

var reasonLabels = [NumReasons]string{
	"request_line", "header_too_large", "header", "host", "body_too_large", "transfer_encoding", "expect",
}

func (r Reason) String() string { return reasonLabels[r] }

// RequestError is a request the server refuses: Status is the reply the
// client gets before the connection closes.
type RequestError struct {
	Status int
	Reason Reason
	msg    string
}

func (e *RequestError) Error() string { return "httpmsg: " + e.msg }

// Response is the reply to the refused request.
func (e *RequestError) Response() *Response {
	return NewErrorResponse(e.Status, strconv.Itoa(e.Status)+" "+http.StatusText(e.Status)+": "+e.msg)
}

func refuse(status int, reason Reason, msg string) *RequestError {
	return &RequestError{Status: status, Reason: reason, msg: msg}
}

func badHeader(msg string) *RequestError { return refuse(http.StatusBadRequest, ReasonHeader, msg) }

func badChunked(msg string) *RequestError {
	return refuse(http.StatusBadRequest, ReasonTransferEncoding, msg)
}

func bodyTooLarge(maxBody int64) *RequestError {
	return refuse(http.StatusBadRequest, ReasonBodyTooLarge, fmt.Sprintf("request body exceeds %d bytes", maxBody))
}

// The messages of the refusals where the codec is stricter than net/http.
const (
	errObsFold      = "obsolete line folding"
	errChunkLineEnd = "chunk-size line does not end in CRLF"
)

var continueResponse = []byte("HTTP/1.1 100 Continue\r\n\r\n")

// field is one header line's key and value, as offsets into the head.
type field struct{ k0, k1, v0, v1 int }

// msgReader is the reading half both sides of the codec share: a message
// head and a body, over the connection's buffered reader. Reused across
// messages: the head's bytes with line ends stripped, the [start, end) of
// each of its lines, the header fields, and the header's encoding.
type msgReader struct {
	br     *bufio.Reader
	head   []byte
	lines  []int
	fields []field
	enc    []byte
}

// newMsgReader reads through a 4 KiB buffer, as net/http's server and
// client both do.
func newMsgReader(r io.Reader) msgReader {
	return msgReader{br: bufio.NewReaderSize(r, 4<<10)}
}

// HTTP1Conn is the server side of one HTTP/1.x client connection. It is not
// safe for concurrent use: a connection carries one request at a time, and
// pipelined requests are read and answered in order.
type HTTP1Conn struct {
	// KeepAlive reports whether the connection may carry another request.
	// ReadRequest sets it from the request's version and Connection header,
	// and WriteHTTP1 clears it when the response says Connection: close. A
	// caller clears it to close the connection after the next response.
	KeepAlive bool

	msgReader
	w        io.Writer
	proto10  bool // the request being answered is HTTP/1.0
	lastPOST bool // the previous request was a POST
	served   bool // a request has been read

	// Reused across requests: the request line's method and target bounds,
	// the response head, the buffers of a response's one write, and the
	// bytes a Content-Type is sniffed from.
	target [4]int
	out    []byte
	bufs   [2][]byte
	wbuf   net.Buffers
	sniff  [512]byte
	hf     headFirst
}

// NewHTTP1Conn returns the codec for a connection.
func NewHTTP1Conn(rw io.ReadWriter) *HTTP1Conn {
	c := &HTTP1Conn{msgReader: newMsgReader(rw), w: rw}
	c.hf.c = c
	return c
}

// Await blocks until the next request begins to arrive, and otherwise
// returns the read's error: io.EOF when the client closed the connection.
// A server counts the connection idle until it returns. After a first
// request it waits for four bytes, as net/http's server does, so a
// connection that ends with fewer closes without a reply.
func (c *HTTP1Conn) Await() error {
	n := 1
	if c.served {
		n = 4
	}
	_, err := c.br.Peek(n)
	return err
}

// ReadRequest reads the next request into req, a zeroed one
// (AcquireRequest's is), with a body of at most maxBody
// bytes (zero or less: no limit). It returns io.EOF when the connection
// closed before a request began, a *RequestError for a request the server
// must refuse, and any other error when the client went away mid-request.
// After any error the connection must be closed.
//
// The checks and their order are net/http's server's, so the two refuse
// the same requests with the same status: the request line, the target,
// the header lines, a repeated Host, the transfer coding (501), the
// Content-Length, the Trailer names, the version (505), a missing or
// invalid Host and the header names, Expect (417), and the body.
func (c *HTTP1Conn) ReadRequest(req *Request, maxBody int64) error {
	c.KeepAlive, c.proto10 = false, false
	if c.lastPOST {
		// RFC 7230 §3.5 tolerance, kept as net/http keeps it: old clients
		// send a CRLF after a POST body.
		peek, _ := c.br.Peek(4)
		c.br.Discard(leadingCRLF(peek))
		c.lastPOST = false
	}
	if _, err := c.readHead(MaxHeaderBytes); err != nil {
		return err
	}
	major, minor, err := c.scanRequestLine()
	if err != nil {
		return err
	}
	badName, err := c.scanFields()
	if err != nil {
		return err
	}
	// One string holds the header, which Host leaves, the method, the
	// target and the first Host: the string an earlier request with these
	// bytes was read into, when requestHeads still holds it.
	hlo, hhi := c.span("Host")
	var host []byte
	if hlo < hhi {
		host = c.head[c.fields[hlo].v0:c.fields[hlo].v1]
	}
	c.fields = slices.Delete(c.fields, hlo, hhi)
	h := &req.Header
	method, target := c.head[c.target[0]:c.target[1]], c.head[c.target[2]:c.target[3]]
	n := c.header(method, target, host)
	s := requestHeads.string(c.enc)
	*h, s = Header{enc: s[:n]}, s[n:]
	req.Method = s[:len(method)]
	if err := parseTarget(&req.urlBuf, req.Method, s[len(method):len(method)+len(target)]); err != nil {
		return err
	}
	req.URL = &req.urlBuf
	if hhi-hlo > 1 {
		return refuse(http.StatusBadRequest, ReasonHost, "too many Host headers")
	}
	fixPragma(h)
	proto11 := major > 1 || major == 1 && minor >= 1
	chunked := false
	if h.Has("Transfer-Encoding") {
		te := h.Values("Transfer-Encoding")
		h.Del("Transfer-Encoding")
		// HTTP/1.0 has no transfer codings: the header is dropped. net/http
		// reads an HTTP/0.0 request's as HTTP/1.1's, and then refuses its
		// version.
		if proto11 || major == 0 && minor == 0 {
			if len(te) != 1 || !asciiEqualFold(te[0], "chunked") {
				return refuse(http.StatusNotImplemented, ReasonTransferEncoding, fmt.Sprintf("unsupported transfer encoding %q", te))
			}
			chunked = true
		}
	}
	length, err := contentLength(h)
	if err != nil {
		return err
	}
	if chunked {
		h.Del("Content-Length")
	}
	if err := checkTrailer(h, chunked); err != nil {
		return err
	}
	if major != 1 {
		return refuse(http.StatusHTTPVersionNotSupported, ReasonRequestLine, "unsupported protocol version")
	}
	haveHost := hlo < hhi
	if proto11 && !haveHost && req.Method != http.MethodConnect {
		return refuse(http.StatusBadRequest, ReasonHost, "missing required Host header")
	}
	if haveHost {
		hostValue := s[len(method)+len(target):]
		if !validHost(hostValue) {
			return refuse(http.StatusBadRequest, ReasonHost, "malformed Host header")
		}
		if req.URL.Host == "" {
			req.URL.Host = hostValue
		}
	}
	if req.URL.Scheme == "" {
		req.URL.Scheme = "http"
	}
	if badName {
		return badHeader("invalid header name")
	}
	expect := h.Get("Expect")
	wantsContinue := hasToken(expect, "100-continue")
	if !wantsContinue && expect != "" {
		return refuse(http.StatusExpectationFailed, ReasonExpect, "unsupported Expect "+strconv.Quote(expect))
	}

	if maxBody <= 0 {
		maxBody = math.MaxInt64 - 1
	}
	if wantsContinue && proto11 && (chunked || length > 0 && length <= maxBody) {
		// net/http sends the interim response when the body is first read.
		if _, err := c.w.Write(continueResponse); err != nil {
			return err
		}
	}
	switch {
	case chunked:
		req.Body, err = c.readChunked(maxBody)
	case length > maxBody:
		err = bodyTooLarge(maxBody)
	case length > 0:
		req.Body, err = c.appendBody(nil, length)
	}
	if err != nil {
		return noEOF(err)
	}
	c.proto10 = !proto11
	conn := h.Get("Connection")
	if proto11 {
		// net/http closes on either reading of Connection: close, an
		// element of any of its lines or a token in its first.
		c.KeepAlive = !h.anyElement("Connection", isClose) && !hasToken(conn, "close")
	} else {
		c.KeepAlive = hasToken(conn, "keep-alive")
	}
	c.lastPOST = req.Method == http.MethodPost
	c.served = true
	return nil
}

// readHead reads the start line and the header lines up to the blank line
// that ends them into c.head, line ends stripped, and records each line's
// bounds in c.lines. A line ends at "\n" or "\r\n". It returns the bytes it
// read, and refuses a head of more than limit of them.
func (c *msgReader) readHead(limit int) (int, error) {
	if cap(c.head) > 64<<10 {
		c.head, c.enc = nil, nil // an outsized head does not stay with the connection
	}
	c.head, c.lines = c.head[:0], c.lines[:0]
	read := 0
	for {
		start := len(c.head)
		for {
			frag, err := c.br.ReadSlice('\n')
			if read += len(frag); read > limit {
				return read, refuse(http.StatusRequestHeaderFieldsTooLarge, ReasonHeaderTooLarge, "header too large")
			}
			c.head = append(c.head, frag...)
			if err == nil {
				break
			}
			if err != bufio.ErrBufferFull {
				if err == io.EOF && read > 0 {
					err = io.ErrUnexpectedEOF
				}
				return read, err
			}
		}
		end := len(c.head) - 1
		if end > start && c.head[end-1] == '\r' {
			end--
		}
		c.head = c.head[:end]
		if end == start && len(c.lines) > 0 {
			return read, nil
		}
		c.lines = append(c.lines, start, end)
	}
}

// scanRequestLine checks the request line, "method SP target SP version",
// records the method's and the target's bounds, and returns the version.
func (c *HTTP1Conn) scanRequestLine() (major, minor int, err error) {
	l0, l1 := c.lines[0], c.lines[1]
	line := c.head[l0:l1]
	sp1 := bytes.IndexByte(line, ' ')
	sp2 := -1
	if sp1 >= 0 {
		sp2 = bytes.IndexByte(line[sp1+1:], ' ')
	}
	if sp2 < 0 {
		return 0, 0, refuse(http.StatusBadRequest, ReasonRequestLine, "malformed request line")
	}
	sp2 += sp1 + 1
	if sp1 == 0 || !isToken(line[:sp1]) {
		return 0, 0, refuse(http.StatusBadRequest, ReasonRequestLine, "invalid method")
	}
	major, minor, ok := parseVersion(line[sp2+1:])
	if !ok {
		return 0, 0, refuse(http.StatusBadRequest, ReasonRequestLine, "malformed HTTP version")
	}
	c.target = [4]int{l0, l0 + sp1, l0 + sp1 + 1, l0 + sp2}
	return major, minor, nil
}

// scanFields checks the header lines and records their keys and values in
// c.fields, with net/textproto's rules: a line has a colon, its name is a
// token, its value has no control bytes, and surrounding blanks are
// trimmed. A line that begins with a blank (obs-fold) is refused. A name
// with a space in it passes here, as in net/textproto, and is reported in
// badName for the caller to refuse after the checks net/http makes first.
// Keys are canonicalized in place, and the fields sorted by key, each key's
// values in the order they arrived.
func (c *msgReader) scanFields() (badName bool, err error) {
	c.fields = c.fields[:0]
	for i := 2; i < len(c.lines); i += 2 {
		l0, l1 := c.lines[i], c.lines[i+1]
		if b := c.head[l0]; b == ' ' || b == '\t' {
			return false, badHeader(errObsFold)
		}
		for l1 > l0 && isOWS(c.head[l1-1]) {
			l1--
		}
		colon := bytes.IndexByte(c.head[l0:l1], ':')
		if colon <= 0 {
			return false, badHeader("malformed header line")
		}
		key := c.head[l0 : l0+colon]
		space, ok := checkName(key)
		if !ok {
			return false, badHeader("malformed header name")
		}
		if !validValue(c.head[l0+colon+1 : l1]) {
			return false, badHeader("malformed header value")
		}
		if space {
			badName = true
		} else {
			canonicalizeKey(key)
		}
		v0 := l0 + colon + 1
		for v0 < l1 && isOWS(c.head[v0]) {
			v0++
		}
		c.fields = append(c.fields, field{l0, l0 + colon, v0, l1})
	}
	slices.SortStableFunc(c.fields, func(a, b field) int {
		return bytes.Compare(c.head[a.k0:a.k1], c.head[b.k0:b.k1])
	})
	return badName, nil
}

// header writes the header fields' encoding into c.enc, the bytes of each
// tail after them, and returns the encoding's length: c.enc holds the
// header's bytes, and then the tails, one after another.
func (c *msgReader) header(tail ...[]byte) int {
	key := func(f field) []byte { return c.head[f.k0:f.k1] }
	nkeys := 0
	for i, f := range c.fields {
		if i == 0 || !bytes.Equal(key(c.fields[i-1]), key(f)) {
			nkeys++
		}
	}
	b := c.enc[:0]
	if nkeys > 0 {
		b = wire.AppendUvarint(b, uint64(nkeys))
	}
	for i, j := 0, 0; i < len(c.fields); i = j {
		k := key(c.fields[i])
		for j = i + 1; j < len(c.fields) && bytes.Equal(key(c.fields[j]), k); j++ {
		}
		b = wire.AppendUvarint(wire.AppendBytes(b, k), uint64(j-i))
		for _, f := range c.fields[i:j] {
			b = wire.AppendBytes(b, c.head[f.v0:f.v1])
		}
	}
	n := len(b)
	for _, t := range tail {
		b = append(b, t...)
	}
	c.enc = b
	return n
}

// requestHeads holds the strings recent request heads were read into
// (ReadRequest: the header's encoding, the method, the target and the
// Host), so a head whose bytes equal one of them is read into that string
// and allocates nothing: a keep-alive client repeating its request, or any
// client asking for a page another asked for lately. Strings are immutable,
// so sharing one changes no lifetime. The node's clients share it; a head
// it does not hold costs the one string it cost without it.
var requestHeads = headTable{seed: maphash.MakeSeed()}

// The head table's shape: headSets sets of headWays strings each, so it
// holds the last 2 048 distinct heads at most, less where more than four
// fall in one set. A head longer than maxSharedHead is never kept, so what
// the table holds stays under 512 KiB.
const (
	headSets      = 512
	headWays      = 4
	maxSharedHead = 256
)

// headTable is a set-associative table of strings, each set under a lock
// of its own.
type headTable struct {
	seed maphash.Seed
	sets [headSets]headSet
}

// headSet is one set of the table, its most recently added string first.
type headSet struct {
	mu   sync.Mutex
	ways [headWays]string
}

// string returns b as a string: one the table holds with b's bytes, or
// else a new one, which the table then keeps in place of the oldest of its
// set.
func (t *headTable) string(b []byte) string {
	if len(b) > maxSharedHead {
		return string(b)
	}
	set := &t.sets[maphash.Bytes(t.seed, b)%headSets]
	set.mu.Lock()
	defer set.mu.Unlock()
	for _, s := range set.ways {
		if s == string(b) {
			return s
		}
	}
	s := string(b)
	copy(set.ways[1:], set.ways[:headWays-1])
	set.ways[0] = s
	return s
}

// span returns the bounds [lo, hi) of key's fields in c.fields.
func (c *msgReader) span(key string) (lo, hi int) {
	for lo < len(c.fields) && string(c.head[c.fields[lo].k0:c.fields[lo].k1]) != key {
		lo++
	}
	for hi = lo; hi < len(c.fields) && string(c.head[c.fields[hi].k0:c.fields[hi].k1]) == key; hi++ {
	}
	return lo, hi
}

// fixPragma adds Cache-Control: no-cache beside an HTTP/1.0 Pragma:
// no-cache, as net/http does for requests and responses alike.
func fixPragma(h *Header) {
	if h.Get("Pragma") == "no-cache" && !h.Has("Cache-Control") {
		h.Set("Cache-Control", "no-cache")
	}
}

// parseTarget parses the request target into u: url.ParseRequestURI's
// result, or for CONNECT's authority form the authority alone, as net/http
// reads them. The common origin form, and the absolute form a client that
// uses the node as its proxy sends, are parsed here without allocating.
func parseTarget(u *url.URL, method, target string) error {
	*u = url.URL{}
	if originForm(u, target) {
		return nil
	}
	authority := method == http.MethodConnect && !strings.HasPrefix(target, "/")
	if !authority && absoluteForm(u, target) {
		return nil
	}
	if authority {
		target = "http://" + target
	}
	parsed, err := url.ParseRequestURI(target)
	if err != nil {
		return refuse(http.StatusBadRequest, ReasonRequestLine, "malformed request target")
	}
	if authority {
		parsed.Scheme = ""
	}
	*u = *parsed
	return nil
}

// originForm parses an absolute path with an optional query into u when
// url.ParseRequestURI would keep its bytes as they are: no escapes to undo,
// nothing its path encoding would write differently (which would set
// RawPath), no control bytes. It reports false for anything else.
func originForm(u *url.URL, target string) bool {
	if target == "" || target[0] != '/' {
		return false
	}
	path, query, hasQuery := strings.Cut(target, "?")
	if !allIn(path, &pathByte) {
		return false
	}
	for i := 0; i < len(query); i++ {
		if b := query[i]; b < ' ' || b == 0x7f {
			return false
		}
	}
	u.Path, u.RawQuery = path, query
	u.ForceQuery = hasQuery && query == ""
	return true
}

// absoluteForm parses an absolute-form target into u when
// url.ParseRequestURI would keep its bytes as they are: a lowercase http or
// https scheme, a plain host (letters, digits, '.' and '-') with an optional
// numeric port, then what originForm accepts. It reports false for anything
// else: user info, a bracketed or escaped host, an empty path.
func absoluteForm(u *url.URL, target string) bool {
	scheme, rest, _ := strings.Cut(target, "://")
	slash := strings.IndexByte(rest, '/')
	if scheme != "http" && scheme != "https" || slash < 0 {
		return false
	}
	host := rest[:slash]
	name, port, hasPort := strings.Cut(host, ":")
	if name == "" || !allIn(name, &plainHostByte) || hasPort && (port == "" || strings.TrimLeft(port, "0123456789") != "") ||
		!originForm(u, rest[slash:]) {
		return false
	}
	u.Scheme, u.Host = scheme, host
	return true
}

// contentLength applies net/http's rules to the Content-Length lines:
// repeats must agree and collapse to one, and the value is a decimal
// number. It returns -1 when there is none; with chunked framing the caller
// drops the header.
func contentLength(h *Header) (int64, error) {
	c, nv, _ := h.seek("Content-Length")
	if nv == 0 {
		return -1, nil
	}
	v := textproto.TrimString(c.str())
	if nv > 1 {
		for i := 1; i < nv; i++ {
			if textproto.TrimString(c.str()) != v {
				return 0, badHeader("conflicting Content-Length")
			}
		}
		h.Set("Content-Length", v)
	}
	if v == "" {
		return 0, badHeader("empty Content-Length")
	}
	n, err := strconv.ParseUint(v, 10, 63)
	if err != nil {
		return 0, badHeader("bad Content-Length")
	}
	return int64(n), nil
}

// checkTrailer drops a chunked request's Trailer header, refusing one that
// names a framing field, as net/http does.
func checkTrailer(h *Header, chunked bool) error {
	if !chunked || !h.Has("Trailer") {
		return nil
	}
	names := h.Values("Trailer")
	h.Del("Trailer")
	for _, v := range names {
		for _, name := range strings.Split(v, ",") {
			switch textproto.CanonicalMIMEHeaderKey(textproto.TrimString(name)) {
			case "Transfer-Encoding", "Trailer", "Content-Length":
				return badHeader("bad trailer key")
			}
		}
	}
	return nil
}

// readChunked reads a chunked body and its trailer, with net/http's
// limits: a chunk-size line fits the read buffer, chunk extensions are
// dropped, and the bytes spent on framing stay within 16 KiB plus twice
// the data.
func (c *msgReader) readChunked(maxBody int64) ([]byte, error) {
	body := []byte{}
	var excess int64
	for {
		line, err := c.br.ReadSlice('\n')
		if err == bufio.ErrBufferFull || err == nil && len(line) >= maxChunkLine {
			return nil, badChunked("chunk line too long")
		}
		if err != nil {
			return nil, err
		}
		excess += int64(len(line)) + 2
		// RFC 9112 lets a bare "\n" end a head's line but not a chunk-size
		// line (errata 7633): it ends in exactly "\r\n", with no other CR.
		// A reader that took either would frame the body differently from
		// a strict proxy in front of it (request smuggling, CVE-2025-22871).
		if len(line) < 2 || bytes.IndexByte(line, '\r') != len(line)-2 {
			return nil, badChunked(errChunkLineEnd)
		}
		line = bytes.TrimRight(line[:len(line)-2], " \t")
		if i := bytes.IndexByte(line, ';'); i >= 0 {
			line = line[:i]
		}
		n, ok := parseHex(line)
		if !ok {
			return nil, badChunked("malformed chunk size")
		}
		if n == 0 {
			break
		}
		if excess -= 16 + 2*int64(n); excess < 0 {
			excess = 0
		}
		if excess > 16<<10 {
			return nil, badChunked("chunked encoding contains too much non-data")
		}
		if n > uint64(maxBody-int64(len(body))) {
			return nil, bodyTooLarge(maxBody)
		}
		if body, err = c.appendBody(body, int64(n)); err != nil {
			return nil, err
		}
		var crlf [2]byte
		if _, err := io.ReadFull(c.br, crlf[:]); err != nil {
			return nil, err
		}
		if crlf != [2]byte{'\r', '\n'} {
			return nil, badChunked("malformed chunked encoding")
		}
	}
	return body, c.skipTrailer()
}

// appendBody appends the next n bytes of the message to dst. The buffer
// grows with the bytes that arrive, by at most what dst and the read
// buffer already hold (512 bytes at first): a declared length alone buys
// no allocation, and a client that declares 8 MiB and sends ten bytes
// holds about half a kilobyte of the node's memory, not 8 MiB.
func (c *msgReader) appendBody(dst []byte, n int64) ([]byte, error) {
	want := len(dst) + int(n)
	for len(dst) < want {
		if len(dst) == cap(dst) {
			step := max(len(dst), c.br.Buffered(), 512)
			dst = slices.Grow(dst, min(want-len(dst), step))
		}
		k, err := c.br.Read(dst[len(dst):min(cap(dst), want)])
		dst = dst[:len(dst)+k]
		if err != nil && len(dst) < want {
			return nil, noEOF(err)
		}
	}
	return dst, nil
}

// skipTrailer reads past a chunked body's trailer, which the node drops.
// As net/http requires, a trailer must end within the read buffer, and its
// lines pass net/textproto's checks (which, unlike the head's, allow
// folding).
func (c *msgReader) skipTrailer() error {
	peek, err := c.br.Peek(2)
	if len(peek) == 2 && peek[0] == '\r' && peek[1] == '\n' {
		c.br.Discard(2)
		return nil
	}
	if len(peek) < 2 {
		return noEOF(err)
	}
	ended := false
	for size := 4; !ended; size++ {
		buf, err := c.br.Peek(size)
		ended = bytes.HasSuffix(buf, []byte("\r\n\r\n"))
		if err != nil && !ended {
			return badChunked("suspiciously long trailer after chunked body")
		}
	}
	for first := true; ; first = false {
		line, err := c.readLine()
		if err != nil {
			return noEOF(err)
		}
		if len(line) == 0 {
			return nil
		}
		if line[0] == ' ' || line[0] == '\t' {
			if first || !validValue(line) {
				return badChunked("malformed trailer")
			}
			continue
		}
		line = bytes.TrimRight(line, " \t")
		colon := bytes.IndexByte(line, ':')
		if colon <= 0 {
			return badChunked("malformed trailer")
		}
		if _, ok := checkName(line[:colon]); !ok || !validValue(line[colon+1:]) {
			return badChunked("malformed trailer")
		}
	}
}

// readLine reads one line, its line end stripped. A last line the
// connection ends without a line end is a line, as in net/textproto.
func (c *msgReader) readLine() ([]byte, error) {
	var line []byte
	for {
		frag, err := c.br.ReadSlice('\n')
		line = append(line, frag...)
		if err == bufio.ErrBufferFull {
			continue
		}
		if err != nil && (err != io.EOF || len(line) == 0) {
			return nil, err
		}
		line = bytes.TrimSuffix(line, []byte("\n"))
		if err == nil {
			line = bytes.TrimSuffix(line, []byte("\r"))
		}
		return line, nil
	}
}

// WriteHTTP1 writes the response to the request c last read, whose method
// is given, as net/http's server writes what WriteToMethod hands it: the
// status line, the headers (invalid names dropped, line breaks in values
// blanked), a Date when there is none, and a Content-Type sniffed from the
// body when there is none and no Content-Encoding. The body is framed by
// Content-Length, the length WriteToMethod sends, and is absent for HEAD,
// 1xx, 204 and 304, which carry no Content-Length (nor, for a 304, a
// Content-Type). No response carries Transfer-Encoding. When the
// connection closes after the response, HTTP/1.1 says Connection: close;
// an HTTP/1.0 connection kept open says Connection: keep-alive.
//
// A ranged response (ApplyRange's 206) has its Accept-Ranges and
// Content-Range written in their sorted places among the header's.
//
// A whole body goes out with the head in one write. A streamed body follows
// the head a segment per write, each on its way to the client before the
// next is resolved; a stream that writes its own ranges (RangeWriter) sends
// its first segment with the head, unless a Content-Type is to be sniffed.
func (r *Response) WriteHTTP1(c *HTTP1Conn, method string) error {
	noBody := bodyless(r.Status)
	var n int64
	if !noBody {
		n = r.BodyLen()
	}
	send := !noBody && method != http.MethodHead && n > 0
	sniff := send && !r.Header.Has("Content-Type") && r.Header.Get("Content-Encoding") == ""
	if r.Header.Get("Connection") == "close" {
		c.KeepAlive = false
	}
	var prefix []byte
	var rc io.ReadCloser
	var rw RangeWriter
	if send {
		prefix = r.Body
		if w, ok := r.Stream.(RangeWriter); ok && !sniff {
			rw = w
		} else if r.Stream != nil {
			from, to := r.rangeSpan()
			var err error
			if rc, err = r.Stream.Range(from, to); err != nil {
				c.KeepAlive = false
				return fmt.Errorf("httpmsg: open body stream: %w", err)
			}
			defer rc.Close()
			k, err := io.ReadFull(rc, c.sniff[:min(n, int64(len(c.sniff)))])
			if err != nil {
				c.KeepAlive = false
				return fmt.Errorf("httpmsg: read body stream: %w", err)
			}
			prefix = c.sniff[:k]
		}
	}

	b := c.out[:0]
	if c.proto10 {
		b = append(b, "HTTP/1.0 "...)
	} else {
		b = append(b, "HTTP/1.1 "...)
	}
	b = strconv.AppendInt(b, int64(r.Status), 10)
	if text := http.StatusText(r.Status); text != "" {
		b = append(append(b, ' '), text...)
	} else {
		b = strconv.AppendInt(append(b, " status code "...), int64(r.Status), 10)
	}
	b = append(b, "\r\n"...)
	ranges := len(rangeFields) // the range fields written, all of them when there are none
	if r.ranged {
		ranges = 0
	}
	r.Header.eachStamped(r.Stamp, func(k, v string) {
		for ; ranges < len(rangeFields) && rangeFields[ranges] <= k; ranges++ {
			b = r.appendRangeField(b, ranges)
		}
		if r.ranged && (k == rangeFields[0] || k == rangeFields[1]) {
			return
		}
		switch k {
		case "Content-Length", "Transfer-Encoding":
			return
		case "Content-Type":
			if r.Status == http.StatusNotModified {
				return
			}
		case "Connection":
			if !c.KeepAlive {
				return
			}
		}
		if isToken(k) {
			b = appendField(b, k, v)
		}
	})
	for ; ranges < len(rangeFields); ranges++ {
		b = r.appendRangeField(b, ranges)
	}
	if !noBody {
		b = strconv.AppendInt(append(b, "Content-Length: "...), n, 10)
		b = append(b, "\r\n"...)
	}
	if sniff {
		b = appendField(b, "Content-Type", http.DetectContentType(prefix))
	}
	if !r.Header.Has("Date") {
		b = time.Now().UTC().AppendFormat(append(b, "Date: "...), http.TimeFormat)
		b = append(b, "\r\n"...)
	}
	if !c.KeepAlive {
		if !c.proto10 {
			b = append(b, "Connection: close\r\n"...)
		}
	} else if c.proto10 && !r.Header.Has("Connection") {
		b = append(b, "Connection: keep-alive\r\n"...)
	}
	b = append(b, "\r\n"...)
	c.out = b

	var err error
	switch {
	case !send:
		_, err = c.w.Write(b)
	case rw != nil:
		c.hf.head = b
		from, to := r.rangeSpan()
		var wrote int64
		if wrote, err = rw.WriteRange(&c.hf, from, to); err == nil && wrote != n {
			err = fmt.Errorf("httpmsg: body stream gave %d of %d bytes", wrote, n)
		}
		c.hf.head = nil
	case rc == nil:
		c.wbuf = append(net.Buffers(c.bufs[:0]), b, r.Body)
		_, err = c.wbuf.WriteTo(c.w)
	default:
		c.out = append(b, prefix...)
		if _, err = c.w.Write(c.out); err == nil {
			var copied int64
			copied, err = io.Copy(c.w, rc)
			if want := n - int64(len(prefix)); err == nil && copied != want {
				err = fmt.Errorf("httpmsg: body stream gave %d of %d bytes", copied, want)
			}
		}
	}
	if err != nil {
		c.KeepAlive = false
	}
	return err
}

// rangeFields are the fields a ranged response's writers add, in order;
// Content-Length is the third, which WriteHTTP1 writes after the others.
var rangeFields = [2]string{"Accept-Ranges", "Content-Range"}

// appendRangeField appends a ranged response's rangeFields[i].
func (r *Response) appendRangeField(b []byte, i int) []byte {
	b = append(append(b, rangeFields[i]...), ": "...)
	if i == 0 {
		b = append(b, "bytes"...)
	} else {
		b = r.appendContentRange(b)
	}
	return append(b, "\r\n"...)
}

// headFirst is the writer a RangeWriter writes a response body through: its
// first Write sends the response head, still pending, with the bytes in one
// write; the rest go straight to the connection.
type headFirst struct {
	c    *HTTP1Conn
	head []byte
}

func (h *headFirst) Write(p []byte) (int, error) {
	if h.head == nil {
		return h.c.w.Write(p)
	}
	c := h.c
	c.wbuf = append(net.Buffers(c.bufs[:0]), h.head, p)
	n, err := c.wbuf.WriteTo(c.w)
	n -= int64(len(h.head))
	h.head = nil
	return int(max(n, 0)), err
}

// appendField appends "key: value\r\n", the value trimmed and its line
// breaks blanked, as net/http writes header values.
func appendField(b []byte, key, value string) []byte {
	b = append(append(b, key...), ": "...)
	value = textproto.TrimString(value)
	if strings.ContainsAny(value, "\r\n") {
		for i := 0; i < len(value); i++ {
			if ch := value[i]; ch == '\r' || ch == '\n' {
				b = append(b, ' ')
			} else {
				b = append(b, ch)
			}
		}
	} else {
		b = append(b, value...)
	}
	return append(b, "\r\n"...)
}

// ClientIP is the client address of a connection's remote address
// ("host:port"), without the port and the brackets of an IPv6 literal.
func ClientIP(remoteAddr string) string {
	host := remoteAddr
	if i := strings.LastIndex(host, ":"); i > 0 {
		host = host[:i]
	}
	return strings.Trim(host, "[]")
}

// ---------------------------------------------------------------------------
// Lexical helpers: net/http's and net/textproto's rules, copied where they
// are unexported.
// ---------------------------------------------------------------------------

// The byte sets the codec checks against: an RFC 7230 token (tchar); the
// bytes url.URL keeps unescaped in a path (unreserved characters and the
// reserved ones its path encoding leaves alone); the bytes net/http allows
// in a Host header; those of them url.URL writes unescaped in a host; and a
// plain host name's. All five include the letters and digits.
var (
	tokenByte     = byteSet("!#$%&'*+-.^_`|~")
	pathByte      = byteSet("-_.~$&+,/:;=@")
	hostByte      = byteSet("!$%&'()*+,-.:;=[]_~")
	keyHostByte   = byteSet("-.:[]_~")
	plainHostByte = byteSet("-.")
)

func byteSet(punct string) (t [256]bool) {
	for _, b := range []byte(punct + "0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ") {
		t[b] = true
	}
	return t
}

func isOWS(b byte) bool { return b == ' ' || b == '\t' }

func allIn(s string, set *[256]bool) bool {
	for i := 0; i < len(s); i++ {
		if !set[s[i]] {
			return false
		}
	}
	return true
}

func isToken[T string | []byte](b T) bool {
	for i := 0; i < len(b); i++ {
		if !tokenByte[b[i]] {
			return false
		}
	}
	return len(b) > 0
}

// checkName checks a header name as net/textproto does: tokens, plus
// spaces, which it lets through uncanonicalized.
func checkName(b []byte) (space, ok bool) {
	for _, c := range b {
		if c == ' ' {
			space = true
		} else if !tokenByte[c] {
			return false, false
		}
	}
	return space, len(b) > 0
}

// validValue reports whether b is a header value net/textproto accepts:
// no control bytes but tab, and no DEL.
func validValue(b []byte) bool {
	for _, c := range b {
		if c < ' ' && c != '\t' || c == 0x7f {
			return false
		}
	}
	return true
}

func validHost(h string) bool { return allIn(h, &hostByte) }

// canonicalizeKey rewrites a token in place in canonical MIME form: upper
// case first and after each hyphen, lower case elsewhere.
func canonicalizeKey(b []byte) {
	upper := true
	for i, c := range b {
		if upper && 'a' <= c && c <= 'z' {
			b[i] = c - ('a' - 'A')
		} else if !upper && 'A' <= c && c <= 'Z' {
			b[i] = c + ('a' - 'A')
		}
		upper = c == '-'
	}
}

// parseVersion is http.ParseHTTPVersion over bytes.
func parseVersion(v []byte) (major, minor int, ok bool) {
	switch string(v) {
	case "HTTP/1.1":
		return 1, 1, true
	case "HTTP/1.0":
		return 1, 0, true
	}
	if len(v) != len("HTTP/X.Y") || !bytes.HasPrefix(v, []byte("HTTP/")) || v[6] != '.' {
		return 0, 0, false
	}
	if v[5] < '0' || v[5] > '9' || v[7] < '0' || v[7] > '9' {
		return 0, 0, false
	}
	return int(v[5] - '0'), int(v[7] - '0'), true
}

// parseHex parses a chunk size: at most 16 hex digits.
func parseHex(v []byte) (n uint64, ok bool) {
	if len(v) == 0 || len(v) > 16 {
		return 0, false
	}
	for _, b := range v {
		switch {
		case '0' <= b && b <= '9':
			b -= '0'
		case 'a' <= b && b <= 'f':
			b -= 'a' - 10
		case 'A' <= b && b <= 'F':
			b -= 'A' - 10
		default:
			return 0, false
		}
		n = n<<4 | uint64(b)
	}
	return n, true
}

func leadingCRLF(b []byte) int {
	n := 0
	for n < len(b) && (b[n] == '\r' || b[n] == '\n') {
		n++
	}
	return n
}

func noEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

func lowerASCII(b byte) byte {
	if 'A' <= b && b <= 'Z' {
		return b + ('a' - 'A')
	}
	return b
}

// asciiEqualFold reports whether s and t are equal under ASCII case
// folding only (strings.EqualFold would also fold, say, 'ſ' to 's').
func asciiEqualFold(s, t string) bool {
	if len(s) != len(t) {
		return false
	}
	for i := 0; i < len(s); i++ {
		if lowerASCII(s[i]) != lowerASCII(t[i]) {
			return false
		}
	}
	return true
}

// hasToken reports whether the lower-case token occurs in v, ASCII
// case-insensitively, between spaces, tabs or commas: net/http's reading
// of Expect, of HTTP/1.0 keep-alive, and its second of Connection: close.
func hasToken(v, token string) bool {
	for sp := 0; sp+len(token) <= len(v); sp++ {
		if sp > 0 && !tokenBoundary(v[sp-1]) {
			continue
		}
		if end := sp + len(token); end != len(v) && !tokenBoundary(v[end]) {
			continue
		}
		if asciiEqualFold(v[sp:sp+len(token)], token) {
			return true
		}
	}
	return false
}

func tokenBoundary(b byte) bool { return b == ' ' || b == ',' || b == '\t' }

func isClose(elem string) bool { return asciiEqualFold(elem, "close") }
