package core

import (
	"encoding/hex"
	"testing"
	"time"

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

func TestRepRangeRoundTrip(t *testing.T) {
	req := repRangeReq{From: 12, To: 1 << 62, After: "s/k", Limit: 64}
	gotReq, err := decodeRepRangeReq(encodeRepRangeReq(req))
	if err != nil {
		t.Fatalf("decodeRepRangeReq: %v", err)
	}
	if gotReq != req {
		t.Fatalf("range req round trip: got %+v want %+v", gotReq, req)
	}

	resp := repRangeResp{
		Recs: []state.Rec{
			{Site: "a", Key: "k1", Ver: 1, Origin: "n1", Value: "v1"},
			{Site: "b", Key: "k2", Ver: 2, Origin: "n2", Delete: true},
		},
		More: true,
	}
	gotResp, err := decodeRepRangeResp(encodeRepRangeResp(resp))
	if err != nil {
		t.Fatalf("decodeRepRangeResp: %v", err)
	}
	if gotResp.More != resp.More || len(gotResp.Recs) != len(resp.Recs) {
		t.Fatalf("range resp round trip: got %+v want %+v", gotResp, resp)
	}
	for i := range resp.Recs {
		if gotResp.Recs[i] != resp.Recs[i] {
			t.Fatalf("rec %d: got %+v want %+v", i, gotResp.Recs[i], resp.Recs[i])
		}
	}
}

// Payloads as the gob encoder wrote them for the release that shipped gob
// bodies: a repForward, a repRangeReq, a repRangeResp and the off.exec
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
		"repRangeReq":    func(b []byte) error { _, err := decodeRepRangeReq(b); return err },
		"repRangeResp":   func(b []byte) error { _, err := decodeRepRangeResp(b); return err },
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

func TestOffloadRequestRoundTrip(t *testing.T) {
	req := httpmsg.MustRequest("GET", "http://site.example/resource")
	req.Header.Set("Accept", "text/html")
	req.ClientIP = "192.0.2.1"
	req.Received = time.Unix(0, 1754600000000000000)

	got, err := decodeOffloadRequest(encodeOffloadRequest(req))
	if err != nil {
		t.Fatalf("decodeOffloadRequest: %v", err)
	}
	if got.Method != req.Method || got.URL.String() != req.URL.String() || got.ClientIP != req.ClientIP {
		t.Fatalf("round trip: got %+v want %+v", got, req)
	}
}
