package httpmsg

import (
	"bytes"
	"encoding/hex"
	"net/http"
	"reflect"
	"testing"

	"nakika/internal/wire"
)

func TestResponseCodecRoundTrip(t *testing.T) {
	resp := NewResponse(200)
	resp.Header.Set("Content-Type", "text/html; charset=utf-8")
	resp.Header.Add("X-Multi", "a")
	resp.Header.Add("X-Multi", "b")
	resp.SetBodyString("<html>hello</html>")
	resp.Generated = true
	resp.FromCache = true
	resp.Via = "edge-3"

	got, err := DecodeResponse(EncodeResponse(resp))
	if err != nil {
		t.Fatalf("DecodeResponse: %v", err)
	}
	if got.Status != resp.Status || got.Generated != resp.Generated ||
		got.FromCache != resp.FromCache || got.Via != resp.Via {
		t.Fatalf("round trip: got %+v want %+v", got, resp)
	}
	if !bytes.Equal(got.Body, resp.Body) {
		t.Fatalf("body: got %q want %q", got.Body, resp.Body)
	}
	if !reflect.DeepEqual(got.Header, resp.Header) {
		t.Fatalf("header: got %v want %v", got.Header, resp.Header)
	}
}

func TestResponseCodecEmptyFields(t *testing.T) {
	resp := &Response{Status: 404}
	got, err := DecodeResponse(EncodeResponse(resp))
	if err != nil {
		t.Fatalf("DecodeResponse: %v", err)
	}
	if got.Status != 404 || got.Header != (Header{}) || got.Body != nil {
		t.Fatalf("empty round trip: got %+v", got)
	}
}

// gobResponse is a 200 text/html response as the gob encoder wrote it for the
// release that shipped gob bodies.
const gobResponse = "717f03010108526573706f6e736501ff800001080106537461747573010400010648656164657201ff84000104426f6479010a00010947656e657261746564010200010946726f6d43616368650102000103566961010c0001074665746368656401ff8600010653747265616d011000000017ff830401010648656164657201ff8400010c01ff8200000cff81020102ff8200010c000010ff850501010454696d6501ff8600000065ff8001fe019001020c436f6e74656e742d547970650109746578742f68746d6c0d43616368652d436f6e74726f6c010a6d61782d6167653d3630010f3c68746d6c3e68693c2f68746d6c3e0306656467652d31010f010000000edce5e80000000005000000"

// TestDecodeRejectsWhatIsNotAPayload: there is one encoding, so a gob
// stream, arbitrary bytes and truncations are errors for both decoders,
// never a panic and never a message.
func TestDecodeRejectsWhatIsNotAPayload(t *testing.T) {
	gobBytes, err := hex.DecodeString(gobResponse)
	if err != nil {
		t.Fatal(err)
	}
	cases := [][]byte{nil, {}, {wire.Magic}, {wire.Magic, 200, 200}, gobBytes, []byte("HTTP/1.1 200 OK\r\n\r\n"), {0xff, 0, 1}}
	for _, c := range cases {
		if resp, err := DecodeResponse(c); err == nil {
			t.Errorf("DecodeResponse(% x) = %+v, want an error", c, resp)
		}
		if req, err := DecodeRequest(c); err == nil {
			t.Errorf("DecodeRequest(% x) = %+v, want an error", c, req)
		}
	}
}

// TestDecodeRejectsTrailingBytes: a payload with anything after its last
// field is not in this build's format, so each decoder refuses it rather than
// reading the fields it knows and dropping the rest.
func TestDecodeRejectsTrailingBytes(t *testing.T) {
	resp := &Response{Status: 200, Header: FromHTTPHeader(http.Header{"Etag": {`"v1"`}}), Body: []byte("body"), Via: "edge-1"}
	req := MustRequest("GET", "http://site.example/resource")
	for _, c := range []struct {
		name    string
		payload []byte
		decode  func([]byte) error
	}{
		{"DecodeResponse", EncodeResponse(resp), func(p []byte) error { _, err := DecodeResponse(p); return err }},
		{"DecodeStored", EncodeResponse(resp), func(p []byte) error { _, err := DecodeStored(p); return err }},
		{"DecodeRequest", EncodeRequest(req), func(p []byte) error { _, err := DecodeRequest(p); return err }},
	} {
		if err := c.decode(c.payload); err != nil {
			t.Errorf("%s of a whole payload: %v", c.name, err)
		}
		for _, tail := range [][]byte{{0}, {1}, {0, 0, 0, 0}} {
			if err := c.decode(append(bytes.Clone(c.payload), tail...)); err == nil {
				t.Errorf("%s accepted a payload with % x after its last field", c.name, tail)
			}
		}
	}
}

// TestResponseGolden pins the response encoding, the payload of cache.get
// and off.exec replies and of disk-cache records. The response ends with its
// Via; the previous format went on with a fetch time (a presence byte and
// unix nanoseconds) that nothing decided on. A payload in that format, as a
// node of the previous build sends it, is refused, never misread.
func TestResponseGolden(t *testing.T) {
	const (
		golden       = "00c801020d43616368652d436f6e74726f6c010a6d61782d6167653d36300c436f6e74656e742d547970650109746578742f68746d6c0f3c68746d6c3e68693c2f68746d6c3e000006656467652d31"
		parentGolden = golden + "018a80d0e2c6bfce972f"
	)
	resp := &Response{
		Status: 200,
		Header: FromHTTPHeader(http.Header{"Content-Type": {"text/html"}, "Cache-Control": {"max-age=60"}}),
		Body:   []byte("<html>hi</html>"),
		Via:    "edge-1",
	}
	if got := hex.EncodeToString(EncodeResponse(resp)); got != golden {
		t.Errorf("EncodeResponse = %s, want %s", got, golden)
	}
	raw, _ := hex.DecodeString(golden)
	got, err := DecodeResponse(raw)
	if err != nil || got.Status != 200 || !reflect.DeepEqual(got.Header, resp.Header) ||
		!bytes.Equal(got.Body, resp.Body) || got.Via != "edge-1" {
		t.Errorf("DecodeResponse(golden) = %+v, %v", got, err)
	}
	parent, _ := hex.DecodeString(parentGolden)
	if got, err := DecodeResponse(parent); err == nil {
		t.Errorf("DecodeResponse(the previous format) = %+v, want an error", got)
	}
	if got, err := DecodeStored(parent); err == nil {
		t.Errorf("DecodeStored(the previous format) = %+v, want an error", got)
	}
}

func TestRequestCodecRoundTrip(t *testing.T) {
	req := MustRequest("POST", "http://site.example/path?q=1")
	req.Header.Set("Accept", "text/html")
	req.Body = []byte("payload")
	req.ClientIP = "10.0.0.9"
	req.Redirected = true

	got, err := DecodeRequest(EncodeRequest(req))
	if err != nil {
		t.Fatalf("DecodeRequest: %v", err)
	}
	if got.Method != req.Method || got.URL.String() != req.URL.String() ||
		got.ClientIP != req.ClientIP || got.Redirected != req.Redirected {
		t.Fatalf("round trip: got %+v want %+v", got, req)
	}
	if !bytes.Equal(got.Body, req.Body) || !reflect.DeepEqual(got.Header, req.Header) {
		t.Fatalf("body/header mismatch: got %+v", got)
	}
}

func TestHeaderCodecDeterministic(t *testing.T) {
	h := FromHTTPHeader(http.Header{"B": {"2"}, "A": {"1"}, "C": {"3", "4"}})
	a := AppendHeader(nil, h)
	b := AppendHeader(nil, h)
	if !bytes.Equal(a, b) {
		t.Fatal("header encoding not deterministic")
	}
	r := wire.NewReader(a)
	got, err := ReadHeader(r)
	if err != nil {
		t.Fatalf("ReadHeader: %v", err)
	}
	if !reflect.DeepEqual(got, h) {
		t.Fatalf("header round trip: got %v want %v", got, h)
	}
}

// fuzzHeader builds a header from arbitrary bytes: a key count, then per key
// a length-prefixed name and a value count, then per value a two-byte length
// and its bytes, so values run past 127 bytes and their lengths take more
// than one uvarint byte. Names are used as they come, canonical or not.
func fuzzHeader(spec []byte) http.Header {
	next := func(n int) []byte {
		n = min(n, len(spec))
		b := spec[:n]
		spec = spec[n:]
		return b
	}
	count := func() int {
		if b := next(1); len(b) == 1 {
			return int(b[0])
		}
		return 0
	}
	h := http.Header{}
	for range count() % 24 {
		k := string(next(count() % 32))
		vs := []string{}
		for range count() % 4 {
			l := next(2)
			n := 0
			for _, b := range l {
				n = n<<8 | int(b)
			}
			vs = append(vs, string(next(n%600)))
		}
		h[k] = vs
	}
	return h
}

// FuzzStoredHeader: the stored form of a response's header is its header,
// whose bytes are AppendHeader's, DecodeStored finds the same bytes in the
// response's payload, and every response made from it reads the fields it
// was built from, so a write into one hit's header never shows in the next.
// Arbitrary bytes read as a header or are refused, without a panic, and a
// header read from them writes them back as they were.
func FuzzStoredHeader(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0})
	f.Add([]byte{1, 12, 'C', 'o', 'n', 't', 'e', 'n', 't', '-', 'T', 'y', 'p', 'e', 1, 0, 9, 't', 'e', 'x', 't', '/', 'h', 't', 'm', 'l'})
	f.Add([]byte{2, 5, 'x', '-', 'a', 'b', 'C', 3, 0, 0, 0, 1, 'v', 0, 1, 'v', 3, 'E', 't', 'a', 'g', 0})
	f.Add(append([]byte{1, 4, 'v', 'a', 'r', 'y', 2, 0, 200}, bytes.Repeat([]byte{'a'}, 200)...))
	f.Fuzz(func(t *testing.T, spec []byte) {
		r := wire.NewReader(spec)
		if read, err := ReadHeader(r); err == nil && read != (Header{}) {
			if got := AppendHeader(nil, read); !bytes.Equal(got, spec[:r.Off]) {
				t.Fatalf("header read from %x writes %x", spec[:r.Off], got)
			}
			read.Each(func(k, v string) { read.Get(k) })
		}
		h := fuzzHeader(spec)
		resp := &Response{Status: 200, Header: FromHTTPHeader(h), Body: []byte("body"), Via: "edge-1"}
		s := resp.StoredForm()
		if s.Header != resp.Header {
			t.Fatalf("stored header %x, response's %x", s.Header.enc, resp.Header.enc)
		}
		decoded, err := DecodeStored(EncodeResponse(resp))
		if err != nil || decoded.Header != s.Header {
			t.Fatalf("DecodeStored: header %x, %v; want %x", decoded.Header.enc, err, s.Header.enc)
		}
		want := http.Header{} // a key without values has no field to read
		for k, vs := range h {
			if len(vs) > 0 {
				want[k] = vs
			}
		}
		a, b := s.Response(nil, true), s.Response(nil, true)
		for _, got := range []Header{a.Header, b.Header} {
			if got := httpHeader(got); !reflect.DeepEqual(got, want) {
				t.Fatalf("decoded %v, want %v", got, want)
			}
		}
		for k := range h {
			a.Header.Set(k, "written")
			a.Header.Add(k, "appended")
		}
		if got := httpHeader(b.Header); !reflect.DeepEqual(got, want) {
			t.Fatalf("a write into one response reached another: %v, want %v", got, want)
		}
		if s.Header != resp.Header {
			t.Fatal("a write into a response reached the stored header")
		}
	})
}
