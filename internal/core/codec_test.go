package core

import (
	"encoding/hex"
	"reflect"
	"testing"

	"nakika/internal/httpmsg"
	"nakika/internal/state"
	"nakika/internal/wire"
)

func TestRepForwardRoundTrip(t *testing.T) {
	reqs := []repForward{
		{},
		{Site: "s.example", Key: "k", Value: "v"},
		{Site: "s", Key: "binary \x00 key", Value: string([]byte{0, 255})},
	}
	for _, req := range reqs {
		got, err := decodeRepForward(encodeRepForward(req))
		if err != nil {
			t.Fatalf("decodeRepForward: %v", err)
		}
		if got != req {
			t.Fatalf("round trip: got %+v want %+v", got, req)
		}
	}
}

func TestRepSyncRoundTrip(t *testing.T) {
	req := syncReq{From: 12, To: 1 << 62}
	req.Sums[3], req.Sums[syncBuckets-1] = 1<<64-1, 9
	req.Ask.add(0)
	req.Ask.add(syncBuckets - 1)
	for _, req := range []syncReq{req, {}} {
		got, err := decodeSyncReq(encodeSyncReq(req))
		if err != nil {
			t.Fatalf("decodeSyncReq: %v", err)
		}
		if got != req {
			t.Fatalf("sync req round trip: got %+v want %+v", got, req)
		}
	}

	resp := syncResp{Recs: []state.Rec{
		{Site: "a", Key: "k1", Ver: 1, Origin: "n1", Value: "v1"},
		{Site: "b", Key: "k2", Ver: 2, Origin: "n2", Delete: true},
	}}
	resp.Covered.add(1)
	resp.Left.add(7)
	resp.Left.add(syncBuckets - 1)
	for _, resp := range []syncResp{resp, {}} {
		got, err := decodeSyncResp(encodeSyncResp(resp))
		if err != nil {
			t.Fatalf("decodeSyncResp: %v", err)
		}
		if !reflect.DeepEqual(got, resp) {
			t.Fatalf("sync resp round trip: got %+v want %+v", got, resp)
		}
	}
}

// Payloads as the gob encoder wrote them for the release that shipped gob
// bodies: a repForward, the two bodies of the range stream that rep.sync
// replaced (a request and a chunk) and the off.exec
// request struct.
var gobPayloads = []string{
	"327f0301010a726570466f727761726401ff80000103010453697465010c0001034b6579010c00010556616c7565010c0000000cff8001017301016b01017600",
	"3dff810301010b72657052616e676552657101ff82000104010446726f6d0106000102546f01060001054166746572010c0001054c696d697401040000000cff8201010102010161011000",
	"2dff830301010c72657052616e67655265737001ff8400010201045265637301ff880001044d6f726501020000001aff870201010b5b5d73746174652e52656301ff880001ff8600004aff850301010352656301ff86000106010453697465010c0001034b6579010c00010356657201060001064f726967696e010c00010644656c657465010200010556616c7565010c00000016ff84010101017301016b010901016f02017600010100",
	"5cff890301010b776972655265717565737401ff8a00010601064d6574686f64010c00010355524c010c00010648656164657201ff8e000104426f6479010a000108436c69656e744950010c000108526563656976656401ff9000000017ff8d0401010648656164657201ff8e00010c01ff8c00000cff8b020102ff8c00010c000010ff8f0501010454696d6501ff900000004bff8a01034745540117687474703a2f2f736974652e6578616d706c652f6f6c6401010641636365707401032a2f2a02093139322e302e322e32010f010000000e7791f73200000000000000",
}

// TestRPCDecodersRejectWhatIsNotAPayload: there is one encoding, so every
// decoder on the transport surface answers a gob stream, arbitrary bytes
// or a bare magic byte with an error — no panic, no half-filled request.
func TestRPCDecodersRejectWhatIsNotAPayload(t *testing.T) {
	cases := [][]byte{nil, {}, {wire.Magic}, {0xff, 0, 1, 2}, []byte("GET / HTTP/1.1\r\n\r\n")}
	for _, h := range gobPayloads {
		b, err := hex.DecodeString(h)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, b)
	}
	decoders := map[string]func([]byte) error{
		"repForward":     func(b []byte) error { _, err := decodeRepForward(b); return err },
		"syncReq":        func(b []byte) error { _, err := decodeSyncReq(b); return err },
		"syncResp":       func(b []byte) error { _, err := decodeSyncResp(b); return err },
		"offloadRequest": func(b []byte) error { _, err := decodeOffloadRequest(b); return err },
		"response":       func(b []byte) error { _, err := httpmsg.DecodeResponse(b); return err },
		"leaseReq":       func(b []byte) error { _, err := decodeLeaseReq(b); return err },
		"leaseFenced":    func(b []byte) error { _, err := decodeLeaseFenced(b); return err },
		"manifest":       func(b []byte) error { _, err := decodeManifest(b); return err },
	}
	for name, decode := range decoders {
		for _, c := range cases {
			if decode(c) == nil {
				t.Errorf("%s decoder accepted % x", name, c)
			}
		}
	}
}

// TestOffloadRequestInAnOlderFormatIsRefused: an off.exec request as a build
// that still carried the request's receive time encodes it (a wire.AppendTime
// after the client IP) must fail to decode. Read by this build's fields
// alone, the time's presence byte is the Redirected flag and the rest
// trails, so without the trailing-bytes check it decodes as a redirected
// request its sender never redirected.
func TestOffloadRequestInAnOlderFormatIsRefused(t *testing.T) {
	older, err := hex.DecodeString("00034745541c687474703a2f2f736974652e6578616d706c652f7265736f7572636501064163636570740109746578742f68746d6c00093139322e302e322e31018080848d88d5a7df3100")
	if err != nil {
		t.Fatal(err)
	}
	if req, err := decodeOffloadRequest(older); err == nil {
		t.Fatalf("decoded %s %s with Redirected = %v; want an error", req.Method, req.URL, req.Redirected)
	}
	// The same request in this build's format decodes.
	req := httpmsg.MustRequest("GET", "http://site.example/resource")
	req.Header.Set("Accept", "text/html")
	req.ClientIP = "192.0.2.1"
	if got, err := decodeOffloadRequest(encodeOffloadRequest(req)); err != nil || got.Redirected {
		t.Fatalf("this build's request: %+v, %v", got, err)
	}
}

func TestOffloadRequestRoundTrip(t *testing.T) {
	req := httpmsg.MustRequest("GET", "http://site.example/resource")
	req.Header.Set("Accept", "text/html")
	req.ClientIP = "192.0.2.1"

	got, err := decodeOffloadRequest(encodeOffloadRequest(req))
	if err != nil {
		t.Fatalf("decodeOffloadRequest: %v", err)
	}
	if got.Method != req.Method || got.URL.String() != req.URL.String() || got.ClientIP != req.ClientIP {
		t.Fatalf("round trip: got %+v want %+v", got, req)
	}
}
