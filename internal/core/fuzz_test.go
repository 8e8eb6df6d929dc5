package core

import (
	"net/http"
	"testing"
	"time"

	"nakika/internal/httpmsg"
	"nakika/internal/largeobject"
	"nakika/internal/state"
)

// FuzzRPCPayloads throws arbitrary bytes at every RPC body decoder on the
// node's transport surface. Each must fail cleanly on garbage: no panic,
// no unbounded allocation — a peer (or an attacker on the RPC port)
// controls these bytes. What a decoder accepts, it refuses once a byte
// follows its encoding (endsWhole).
func FuzzRPCPayloads(f *testing.F) {
	f.Add(encodeRepForward(repForward{Site: "s", Key: "k", Value: "v"}))
	f.Add(encodeSyncReq(syncReq{From: 1, To: 99}))
	f.Add(encodeSyncResp(syncResp{
		Covered: bucketSet{0x80},
		Left:    bucketSet{0, 0x02},
		Recs:    []state.Rec{{Site: "s", Key: "k", Ver: 3, Origin: "n1", Value: "v"}},
	}))
	f.Add(encodeOffloadRequest(httpmsg.MustRequest("GET", "http://match.example.org/find?q=1")))
	f.Add(httpmsg.EncodeResponse(httpmsg.NewTextResponse(200, "ok")))
	f.Add(encodeLeaseReq(leaseReq{Site: "s", Name: "job", Holder: "node-1", Token: 7, TTL: 30_000_000_000}))
	f.Add(encodeLeaseFenced(leaseFenced{
		Guard: "\x00nk:lease:job", Holder: "node-1", Token: 7,
		Rec: state.Rec{Site: "s", Key: "k", Ver: 3, Origin: "n1", Value: "v"},
	}))
	f.Add(encodeManifest(&largeobject.Manifest{
		Key: "GET http://big.example.org/iso", Status: 200, Header: httpmsg.FromHTTPHeader(http.Header{"Etag": {`"v1"`}}),
		TotalLen: 600, SegSize: 256, Expires: time.Unix(1_790_000_600, 0),
		Segments: []largeobject.SegID{largeobject.HashSegment([]byte("a")), largeobject.HashSegment([]byte("b")), largeobject.HashSegment([]byte("c"))},
	}))
	f.Add(append(encodeRepForward(repForward{Site: "s", Key: "k", Value: "v"}), 0))
	f.Add([]byte("\x32\x7f\x03\x01\x01\x0arepForward")) // how a gob stream begins: no magic byte
	f.Add([]byte{0})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		endsWhole(t, "rep forward", data, decodeRepForward, encodeRepForward)
		endsWhole(t, "rep.sync request", data, decodeSyncReq, encodeSyncReq)
		endsWhole(t, "rep.sync reply", data, decodeSyncResp, encodeSyncResp)
		endsWhole(t, "off.exec request", data, decodeOffloadRequest, encodeOffloadRequest)
		endsWhole(t, "response", data, httpmsg.DecodeResponse, httpmsg.EncodeResponse)
		endsWhole(t, "lease request", data, decodeLeaseReq, encodeLeaseReq)
		endsWhole(t, "fenced write", data, decodeLeaseFenced, encodeLeaseFenced)
		endsWhole(t, "manifest", data, decodeManifest, encodeManifest)
	})
}

// endsWhole decodes data and, when it decodes, checks that the value's
// encoding with one byte after it does not: every payload decoder reads its
// payload to the end, so another build's format is an error, never a
// misread.
func endsWhole[T any](t *testing.T, name string, data []byte, decode func([]byte) (T, error), encode func(T) []byte) {
	t.Helper()
	v, err := decode(data)
	if err != nil {
		return
	}
	if _, err := decode(append(encode(v), 0)); err == nil {
		t.Errorf("%s: decoded with a byte after its encoding", name)
	}
}
