package httpmsg

import (
	"bytes"
	"encoding/hex"
	"net/http"
	"reflect"
	"testing"
	"time"

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
	resp.Fetched = time.Unix(0, 1754600000000000000)

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
	if got.Fetched.UnixNano() != resp.Fetched.UnixNano() {
		t.Fatalf("fetched: got %v want %v", got.Fetched, resp.Fetched)
	}
}

func TestResponseCodecEmptyFields(t *testing.T) {
	resp := &Response{Status: 404}
	got, err := DecodeResponse(EncodeResponse(resp))
	if err != nil {
		t.Fatalf("DecodeResponse: %v", err)
	}
	if got.Status != 404 || got.Header != nil || got.Body != nil || !got.Fetched.IsZero() {
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

// TestResponseGolden pins the response encoding to bytes captured from the
// build that still had the gob arm: its cache.get replies and its disk-cache
// entries are read by this one.
func TestResponseGolden(t *testing.T) {
	const golden = "00c801020d43616368652d436f6e74726f6c010a6d61782d6167653d36300c436f6e74656e742d547970650109746578742f68746d6c0f3c68746d6c3e68693c2f68746d6c3e000006656467652d31018a80d0e2c6bfce972f"
	resp := &Response{
		Status: 200,
		Header: http.Header{"Content-Type": {"text/html"}, "Cache-Control": {"max-age=60"}},
		Body:   []byte("<html>hi</html>"),
		Via:    "edge-1", Fetched: time.Unix(1700000000, 5),
	}
	if got := hex.EncodeToString(EncodeResponse(resp)); got != golden {
		t.Errorf("EncodeResponse = %s, want %s", got, golden)
	}
	raw, _ := hex.DecodeString(golden)
	got, err := DecodeResponse(raw)
	if err != nil || got.Status != 200 || !reflect.DeepEqual(got.Header, resp.Header) ||
		!bytes.Equal(got.Body, resp.Body) || got.Via != "edge-1" || !got.Fetched.Equal(resp.Fetched) {
		t.Errorf("DecodeResponse(golden) = %+v, %v", got, err)
	}
}

func TestRequestCodecRoundTrip(t *testing.T) {
	req := MustRequest("POST", "http://site.example/path?q=1")
	req.Header.Set("Accept", "text/html")
	req.Body = []byte("payload")
	req.ClientIP = "10.0.0.9"
	req.Received = time.Unix(0, 1754600000000000000)
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
	if got.Received.UnixNano() != req.Received.UnixNano() {
		t.Fatalf("received: got %v want %v", got.Received, req.Received)
	}
}

func TestHeaderCodecDeterministic(t *testing.T) {
	h := http.Header{"B": {"2"}, "A": {"1"}, "C": {"3", "4"}}
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
