package largeobject

import (
	"net/http"
	"testing"
	"time"

	"nakika/internal/httpmsg"
	"nakika/internal/wire"
)

// decodeManifest reads one AppendManifest encoding.
func decodeManifest(p []byte) (*Manifest, error) { return ReadManifest(wire.NewReader(p)) }

// FuzzManifestDecode throws arbitrary bytes at the manifest decoder: it must
// never panic, and anything it accepts must be geometrically sane and
// re-encode decodable.
func FuzzManifestDecode(f *testing.F) {
	seed := &Manifest{Key: "GET http://example.org/big", Status: 200,
		TotalLen: 3000, SegSize: 1024,
		Segments: []SegID{HashSegment([]byte("a")), HashSegment([]byte("b")), HashSegment([]byte("c"))}}
	f.Add(AppendManifest(nil, seed))
	// A partly ingested object with headers and a fetch time.
	f.Add(AppendManifest(nil, &Manifest{Key: "GET http://example.org/part", Status: 200,
		Header: httpmsg.FromHTTPHeader(http.Header{"Etag": {`"v1"`}}), TotalLen: 2500, SegSize: 1024,
		Segments: seed.Segments[:1], Expires: time.Unix(1754600000, 0)}))
	f.Add([]byte{0})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, payload []byte) {
		if m, err := decodeManifest(payload); err == nil {
			if m.SegSize <= 0 || m.TotalLen < 0 || len(m.Segments) > m.NumSegments() {
				t.Fatalf("accepted insane manifest: %+v", m)
			}
			re, err := decodeManifest(AppendManifest(nil, m))
			if err != nil {
				t.Fatalf("re-decode failed: %v", err)
			}
			if re.Key != m.Key || re.TotalLen != m.TotalLen || len(re.Segments) != len(m.Segments) {
				t.Fatal("re-encode not faithful")
			}
		}
	})
}
