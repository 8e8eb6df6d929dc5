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
// controls these bytes.
func FuzzRPCPayloads(f *testing.F) {
	f.Add(encodeRepForward(repForward{Site: "s", Key: "k", Value: "v"}))
	f.Add(encodeRepRangeReq(repRangeReq{From: 1, To: 99, After: "user:a", Limit: 64}))
	f.Add(encodeRepRangeResp(repRangeResp{
		Recs: []state.Rec{{Site: "s", Key: "k", Ver: 3, Origin: "n1", Value: "v"}},
		More: true,
	}))
	f.Add(encodeOffloadRequest(httpmsg.MustRequest("GET", "http://match.example.org/find?q=1")))
	f.Add(httpmsg.EncodeResponse(httpmsg.NewTextResponse(200, "ok")))
	f.Add(encodeLeaseReq(leaseReq{Site: "s", Name: "job", Holder: "node-1", Token: 7, TTL: 30_000_000_000}))
	f.Add(encodeLeaseFenced(leaseFenced{
		Guard: "\x00nk:lease:job", Holder: "node-1", Token: 7,
		Rec: state.Rec{Site: "s", Key: "k", Ver: 3, Origin: "n1", Value: "v"},
	}))
	f.Add(encodeManifest(&largeobject.Manifest{
		Key: "GET http://big.example.org/iso", Status: 200, Header: http.Header{"Etag": {`"v1"`}},
		TotalLen: 600, SegSize: 256, Fetched: time.Unix(1_790_000_000, 0),
		Segments: []largeobject.SegID{largeobject.HashSegment([]byte("a")), largeobject.HashSegment([]byte("b")), largeobject.HashSegment([]byte("c"))},
	}))
	f.Add([]byte("\x32\x7f\x03\x01\x01\x0arepForward")) // how a gob stream begins: no magic byte
	f.Add([]byte{0})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		_, _ = decodeRepForward(data)
		_, _ = decodeRepRangeReq(data)
		_, _ = decodeRepRangeResp(data)
		_, _ = decodeOffloadRequest(data)
		_, _ = httpmsg.DecodeResponse(data)
		_, _ = decodeLeaseReq(data)
		_, _ = decodeLeaseFenced(data)
		_, _ = decodeManifest(data)
	})
}
