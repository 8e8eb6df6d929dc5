package largeobject

import (
	"bytes"
	"testing"

	"nakika/internal/wire"
)

// decodeManifest reads one AppendManifest encoding.
func decodeManifest(p []byte) (*Manifest, error) { return ReadManifest(wire.NewReader(p)) }

// FuzzManifestDecode throws arbitrary bytes at the manifest and index
// decoders: they must never panic, and anything they accept must re-encode
// decodable (and, for manifests, geometrically sane).
func FuzzManifestDecode(f *testing.F) {
	seed := &Manifest{Key: "GET http://example.org/big", Status: 200,
		TotalLen: 3000, SegSize: 1024,
		Segments: []SegID{HashSegment([]byte("a")), HashSegment([]byte("b")), HashSegment([]byte("c"))}}
	f.Add(AppendManifest(nil, seed))
	f.Add(EncodeIndex(&Index{Manifest: seed, Holders: map[string]BitSet{"n1": BitSet{}.Set(0).Set(2)}}))
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
		if idx, err := DecodeIndex(payload); err == nil {
			enc := EncodeIndex(idx)
			re, err := DecodeIndex(enc)
			if err != nil {
				t.Fatalf("index re-decode failed: %v", err)
			}
			if !bytes.Equal(EncodeIndex(re), enc) {
				t.Fatal("index encoding not canonical")
			}
		}
	})
}
