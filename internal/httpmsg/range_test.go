package httpmsg

import (
	"bytes"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// memStream is a BodyStream over an in-memory byte slice, for tests.
type memStream struct{ data []byte }

func (m *memStream) TotalLen() int64 { return int64(len(m.data)) }
func (m *memStream) Range(from, to int64) (io.ReadCloser, error) {
	if from < 0 || to > int64(len(m.data)) || from > to {
		return nil, errors.New("memStream: range out of bounds")
	}
	return io.NopCloser(bytes.NewReader(m.data[from:to])), nil
}

func TestWriteToMethodTable(t *testing.T) {
	body := []byte("hello, range world")
	cases := []struct {
		name       string
		status     int
		method     string
		body       []byte
		rangeHdr   string // applied via ApplyRange when non-empty
		carriedLen string // pre-set Content-Length header on the response
		wantStatus int
		wantBody   string
		wantLen    string // expected Content-Length on the wire ("" = absent)
	}{
		{
			name: "GET 200", status: 200, method: "GET", body: body,
			wantStatus: 200, wantBody: string(body), wantLen: "18",
		},
		{
			name: "HEAD 200 has length no body", status: 200, method: "HEAD", body: body,
			wantStatus: 200, wantBody: "", wantLen: "18",
		},
		{
			name: "204 no body no length", status: 204, method: "GET", body: nil,
			wantStatus: 204, wantBody: "", wantLen: "",
		},
		{
			name: "204 ignores stray body", status: 204, method: "GET", body: []byte("junk"),
			wantStatus: 204, wantBody: "", wantLen: "",
		},
		{
			name: "304 no body keeps validator length", status: 304, method: "GET", body: nil,
			carriedLen: "18", wantStatus: 304, wantBody: "", wantLen: "18",
		},
		{
			name: "304 does not invent zero length", status: 304, method: "GET", body: nil,
			wantStatus: 304, wantBody: "", wantLen: "",
		},
		{
			name: "GET 200 with Range", status: 200, method: "GET", body: body,
			rangeHdr: "bytes=7-11", wantStatus: 206, wantBody: "range", wantLen: "5",
		},
		{
			name: "HEAD 200 with Range", status: 200, method: "HEAD", body: body,
			rangeHdr: "bytes=7-11", wantStatus: 206, wantBody: "", wantLen: "5",
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			resp := NewResponse(c.status)
			if c.body != nil {
				resp.Body = c.body
			}
			if c.carriedLen != "" {
				resp.Header.Set("Content-Length", c.carriedLen)
			}
			req := MustRequest(c.method, "http://example.org/x")
			if c.rangeHdr != "" {
				req.Header.Set("Range", c.rangeHdr)
			}
			out := ApplyRange(req, resp)
			rec := httptest.NewRecorder()
			if err := out.WriteToMethod(rec, c.method); err != nil {
				t.Fatalf("WriteToMethod: %v", err)
			}
			if rec.Code != c.wantStatus {
				t.Errorf("status = %d, want %d", rec.Code, c.wantStatus)
			}
			if got := rec.Body.String(); got != c.wantBody {
				t.Errorf("body = %q, want %q", got, c.wantBody)
			}
			if got := rec.Header().Get("Content-Length"); got != c.wantLen {
				t.Errorf("Content-Length = %q, want %q", got, c.wantLen)
			}
			if c.wantStatus == 206 {
				if cr := rec.Header().Get("Content-Range"); cr != "bytes 7-11/18" {
					t.Errorf("Content-Range = %q", cr)
				}
			}
		})
	}
}

func TestWriteToMethodStreamed(t *testing.T) {
	data := bytes.Repeat([]byte("0123456789abcdef"), 64)
	resp := NewResponse(200)
	resp.SetStream(&memStream{data: data})
	rec := httptest.NewRecorder()
	if err := resp.WriteToMethod(rec, "GET"); err != nil {
		t.Fatalf("WriteToMethod: %v", err)
	}
	if !bytes.Equal(rec.Body.Bytes(), data) {
		t.Fatal("streamed body mismatch")
	}
	if got := rec.Header().Get("Content-Length"); got != "1024" {
		t.Errorf("Content-Length = %q", got)
	}

	// HEAD over a stream must not resolve any bytes.
	resp2 := NewResponse(200)
	resp2.SetStream(&memStream{data: data})
	rec2 := httptest.NewRecorder()
	if err := resp2.WriteToMethod(rec2, "HEAD"); err != nil {
		t.Fatalf("WriteToMethod HEAD: %v", err)
	}
	if rec2.Body.Len() != 0 {
		t.Error("HEAD reply carried a body")
	}
	if got := rec2.Header().Get("Content-Length"); got != "1024" {
		t.Errorf("HEAD Content-Length = %q", got)
	}
}

// flushLog is a ResponseWriter that reports what has been written each time
// it is flushed, so a test on another goroutine can watch bytes arrive.
type flushLog struct {
	header  http.Header
	body    bytes.Buffer
	flushed chan string // the whole body so far, at each Flush
}

func (w *flushLog) Header() http.Header         { return w.header }
func (w *flushLog) WriteHeader(int)             {}
func (w *flushLog) Write(p []byte) (int, error) { return w.body.Write(p) }
func (w *flushLog) Flush()                      { w.flushed <- w.body.String() }

// twoPiece yields "first piece, " and then, only once released, "second
// piece": a stream whose second segment is not there yet.
type twoPiece struct {
	pieces  []string
	release chan struct{}
}

func (r *twoPiece) Read(p []byte) (int, error) {
	if len(r.pieces) == 0 {
		return 0, io.EOF
	}
	if len(r.pieces) == 1 {
		<-r.release
	}
	n := copy(p, r.pieces[0])
	r.pieces = r.pieces[1:]
	return n, nil
}

// twoPieceWriterTo is twoPiece for io.Copy's other arm, the one the
// large-object range reader takes: it writes its pieces itself.
type twoPieceWriterTo struct{ twoPiece }

func (r *twoPieceWriterTo) WriteTo(w io.Writer) (int64, error) {
	var total int64
	for len(r.pieces) > 0 {
		if len(r.pieces) == 1 {
			<-r.release
		}
		n, err := io.WriteString(w, r.pieces[0])
		total += int64(n)
		if err != nil {
			return total, err
		}
		r.pieces = r.pieces[1:]
	}
	return total, nil
}

type readerStream struct {
	r   io.Reader
	len int64
}

func (s readerStream) TotalLen() int64 { return s.len }
func (s readerStream) Range(from, to int64) (io.ReadCloser, error) {
	return io.NopCloser(s.r), nil
}

// TestWriteToMethodFlushesEachPiece: the first piece of a streamed body is
// flushed to the client before the stream produces the second — the second
// here blocks until the test has seen the first arrive, so a WriteToMethod
// that buffered would deadlock. Both arms of io.Copy are held to it.
func TestWriteToMethodFlushesEachPiece(t *testing.T) {
	const first, second = "first piece, ", "second piece"
	for name, reader := range map[string]func(twoPiece) io.Reader{
		"Read":    func(p twoPiece) io.Reader { return &p },
		"WriteTo": func(p twoPiece) io.Reader { return &twoPieceWriterTo{p} },
	} {
		t.Run(name, func(t *testing.T) {
			release := make(chan struct{})
			resp := NewResponse(200)
			resp.SetStream(readerStream{
				r:   reader(twoPiece{pieces: []string{first, second}, release: release}),
				len: int64(len(first + second)),
			})
			w := &flushLog{header: http.Header{}, flushed: make(chan string)}
			done := make(chan error, 1)
			go func() { done <- resp.WriteToMethod(w, "GET") }()

			expect := func(want string) {
				t.Helper()
				select {
				case got := <-w.flushed:
					if got != want {
						t.Fatalf("flushed %q, want %q", got, want)
					}
				case err := <-done:
					t.Fatalf("WriteToMethod returned (%v) before flushing %q", err, want)
				case <-time.After(10 * time.Second):
					t.Fatalf("%q never reached the client: the copy is not flushing per piece", want)
				}
			}
			expect(first)
			close(release)
			expect(first + second)
			if err := <-done; err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestMaterializeReadsExactlyTheSpan: the body is the active range, read
// into one buffer of that size, and a stream that ends short is an error
// rather than a short body.
func TestMaterializeReadsExactlyTheSpan(t *testing.T) {
	resp := NewResponse(200)
	resp.SetStream(readerStream{r: strings.NewReader("0123456789"), len: 10})
	if err := resp.Materialize(); err != nil {
		t.Fatal(err)
	}
	if string(resp.Body) != "0123456789" || cap(resp.Body) != 10 || resp.Stream != nil {
		t.Fatalf("body %q (cap %d), stream %v", resp.Body, cap(resp.Body), resp.Stream)
	}

	short := NewResponse(200)
	short.SetStream(readerStream{r: strings.NewReader("01234"), len: 10})
	if err := short.Materialize(); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("short stream: err = %v, want unexpected EOF", err)
	}
	if short.Body != nil || short.Stream == nil {
		t.Fatal("a failed Materialize changed the response")
	}
}

func TestApplyRangeStreamedStaysLazy(t *testing.T) {
	data := bytes.Repeat([]byte("x"), 4096)
	copy(data[100:], "needle")
	resp := NewResponse(200)
	resp.SetStream(&memStream{data: data})
	req := MustRequest("GET", "http://example.org/big")
	req.Header.Set("Range", "bytes=100-105")
	out := ApplyRange(req, resp)
	if out.Status != 206 || out.Stream == nil || out.Body != nil {
		t.Fatalf("want lazy 206, got status=%d stream=%v", out.Status, out.Stream != nil)
	}
	if out.BodyLen() != 6 || out.TotalLen() != 4096 {
		t.Fatalf("BodyLen=%d TotalLen=%d", out.BodyLen(), out.TotalLen())
	}
	if err := out.Materialize(); err != nil {
		t.Fatal(err)
	}
	if string(out.Body) != "needle" {
		t.Fatalf("materialized range = %q", out.Body)
	}
}

func TestApplyRangeUnsatisfiable(t *testing.T) {
	resp := NewTextResponse(200, "short")
	req := MustRequest("GET", "http://example.org/x")
	req.Header.Set("Range", "bytes=99-")
	out := ApplyRange(req, resp)
	if out.Status != http.StatusRequestedRangeNotSatisfiable {
		t.Fatalf("status = %d, want 416", out.Status)
	}
	if cr := out.Header.Get("Content-Range"); cr != "bytes */5" {
		t.Errorf("Content-Range = %q", cr)
	}
}

func TestApplyRangeIgnoresMalformedAndNonGET(t *testing.T) {
	resp := NewTextResponse(200, "full body here")
	for _, c := range []struct{ method, hdr string }{
		{"GET", "bytes=5-2"},     // inverted
		{"GET", "bytes=0-1,3-4"}, // multi-range
		{"GET", "chapters=1-2"},  // wrong unit
		{"GET", "bytes=garbage"}, // malformed
		{"POST", "bytes=0-3"},    // wrong method
		{"GET", ""},              // absent
	} {
		req := MustRequest(c.method, "http://example.org/x")
		if c.hdr != "" {
			req.Header.Set("Range", c.hdr)
		}
		out := ApplyRange(req, resp)
		if out != resp {
			t.Errorf("method=%s range=%q: expected pass-through, got status %d", c.method, c.hdr, out.Status)
		}
	}
}

func TestParseRange(t *testing.T) {
	cases := []struct {
		spec     string
		total    int64
		from, to int64
		err      error
	}{
		{"bytes=0-0", 10, 0, 1, nil},
		{"bytes=2-5", 10, 2, 6, nil},
		{"bytes=2-99", 10, 2, 10, nil}, // end clamps
		{"bytes=3-", 10, 3, 10, nil},
		{"bytes=-4", 10, 6, 10, nil},
		{"bytes=-99", 10, 0, 10, nil}, // suffix clamps
		{"bytes=10-", 10, 0, 0, ErrRangeUnsatisfiable},
		{"bytes=10-12", 10, 0, 0, ErrRangeUnsatisfiable},
		{"bytes=-0", 10, 0, 0, ErrRangeUnsatisfiable},
		{"bytes=0-", 0, 0, 0, ErrRangeUnsatisfiable},
		{"bytes=5-2", 10, 0, 0, ErrNotRange},
		{"bytes=0-1,3-4", 10, 0, 0, ErrNotRange},
		{"items=0-1", 10, 0, 0, ErrNotRange},
		{"bytes=", 10, 0, 0, ErrNotRange},
		{"bytes=-", 10, 0, 0, ErrNotRange},
		{"bytes=a-b", 10, 0, 0, ErrNotRange},
	}
	for _, c := range cases {
		from, to, err := ParseRange(c.spec, c.total)
		if !errors.Is(err, c.err) {
			t.Errorf("ParseRange(%q, %d) err = %v, want %v", c.spec, c.total, err, c.err)
			continue
		}
		if err == nil && (from != c.from || to != c.to) {
			t.Errorf("ParseRange(%q, %d) = [%d,%d), want [%d,%d)", c.spec, c.total, from, to, c.from, c.to)
		}
	}
}

func TestCacheableRejects304(t *testing.T) {
	r := NewResponse(http.StatusNotModified)
	if r.Cacheable() {
		t.Fatal("304 must not be cacheable as content")
	}
}

func TestSetBodyDropsStream(t *testing.T) {
	resp := NewResponse(200)
	resp.SetStream(&memStream{data: []byte("streamed")})
	resp.SetBody([]byte("solid"))
	if resp.Stream != nil || resp.TotalLen() != 5 {
		t.Fatal("SetBody left the stream attached")
	}
}

func TestEncodeResponseMaterializesStream(t *testing.T) {
	resp := NewResponse(200)
	resp.SetStream(&memStream{data: []byte("wire bytes")})
	payload := EncodeResponse(resp)
	dec, err := DecodeResponse(payload)
	if err != nil {
		t.Fatal(err)
	}
	if string(dec.Body) != "wire bytes" {
		t.Fatalf("decoded body = %q", dec.Body)
	}
}

func FuzzRangeParse(f *testing.F) {
	f.Add("bytes=0-99", int64(1000))
	f.Add("bytes=-5", int64(10))
	f.Add("bytes=7-", int64(3))
	f.Add("bytes=1-2,4-5", int64(100))
	f.Add("chars=0-1", int64(5))
	f.Add(strings.Repeat("bytes=", 3), int64(1))
	f.Fuzz(func(t *testing.T, spec string, total int64) {
		if total < 0 {
			total = -total
		}
		from, to, err := ParseRange(spec, total)
		if err != nil {
			if !errors.Is(err, ErrNotRange) && !errors.Is(err, ErrRangeUnsatisfiable) {
				t.Fatalf("unexpected error class: %v", err)
			}
			return
		}
		// Any accepted range must be a non-empty span inside the instance.
		if from < 0 || to > total || from >= to {
			t.Fatalf("ParseRange(%q, %d) = [%d,%d): out of bounds", spec, total, from, to)
		}
	})
}
