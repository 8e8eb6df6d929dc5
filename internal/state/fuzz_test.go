package state

import (
	"testing"
)

// FuzzRecRoundTrip drives arbitrary field values through the binary Rec
// codec and requires exact reconstruction: string fields may contain NULs,
// invalid UTF-8, or the wire magic byte, and none of it may confuse the
// length-prefixed encoding.
func FuzzRecRoundTrip(f *testing.F) {
	f.Add("match.example.org", "user:arthur", uint64(7), "edge-3", false, `{"name":"Arthur"}`)
	f.Add("", "", uint64(0), "", true, "")
	f.Add("\x00", "k\x00k", ^uint64(0), "\xff\xfe", false, string([]byte{0, 1, 2, 255}))
	f.Fuzz(func(t *testing.T, site, key string, ver uint64, origin string, del bool, value string) {
		rec := Rec{Site: site, Key: key, Ver: ver, Origin: origin, Delete: del, Value: value}
		out, err := DecodeRec(EncodeRec(rec))
		if err != nil {
			t.Fatalf("decode of own encoding failed: %v", err)
		}
		if out != rec {
			t.Fatalf("round trip mismatch:\n in: %+v\nout: %+v", rec, out)
		}
	})
}

// FuzzRecDecode feeds arbitrary bytes to the record decoder: it may reject
// them, but must never panic or over-allocate its way to an OOM.
func FuzzRecDecode(f *testing.F) {
	f.Add(EncodeRec(Rec{Site: "s", Key: "k", Ver: 1, Origin: "o", Value: "v"}))
	f.Add([]byte{0})
	f.Add([]byte{})
	f.Add([]byte("\x49\x7f\x03\x01\x01\x03Rec")) // how a gob stream begins
	f.Fuzz(func(t *testing.T, data []byte) {
		_, _ = DecodeRec(data)
	})
}
