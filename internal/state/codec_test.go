package state

import (
	"encoding/hex"
	"testing"
)

func TestRecRoundTrip(t *testing.T) {
	recs := []Rec{
		{},
		{Site: "a.example", Key: "k", Ver: 7, Origin: "n1", Value: "v"},
		{Site: "b.example", Key: "key with spaces", Ver: 1 << 60, Origin: "n2", Delete: true},
		{Site: "c", Key: "\x00\xff", Ver: 0, Origin: "", Value: string([]byte{0, 1, 2, 255})},
	}
	for _, rec := range recs {
		got, err := DecodeRec(EncodeRec(rec))
		if err != nil {
			t.Fatalf("DecodeRec(%v): %v", rec, err)
		}
		if got != rec {
			t.Fatalf("round trip: got %+v want %+v", got, rec)
		}
	}
}

// gobRec is Rec{Site: "example.org", Key: "user:alice", Ver: 7, Origin:
// "edge-1", Value: "profile-v2"} as the gob encoder wrote it for the release
// that shipped gob bodies.
const gobRec = "497f0301010352656301ff80000106010453697465010c0001034b6579010c00010356657201060001064f726967696e010c00010644656c657465010200010556616c7565010c00000032ff80010b6578616d706c652e6f7267010a757365723a616c69636501070106656467652d31020a70726f66696c652d763200"

// TestDecodeRecRejectsWhatIsNotARecord: there is one encoding, so a gob
// stream, arbitrary bytes and every truncation are all errors, never a
// panic and never a record.
func TestDecodeRecRejectsWhatIsNotARecord(t *testing.T) {
	gobBytes, err := hex.DecodeString(gobRec)
	if err != nil {
		t.Fatal(err)
	}
	cases := [][]byte{nil, {}, {0}, {0, 200}, {0, 5, 'a'}, gobBytes, []byte("not a record"), {0xff, 0, 1, 2}}
	for _, c := range cases {
		if rec, err := DecodeRec(c); err == nil {
			t.Errorf("DecodeRec(% x) = %+v, want an error", c, rec)
		}
	}
}

// TestRecGolden pins the record encoding to bytes captured from the build
// that still had the gob arm: what that build pushes or streams in a
// handoff, this one reads.
func TestRecGolden(t *testing.T) {
	const golden = "000b6578616d706c652e6f72670a757365723a616c6963650706656467652d31000a70726f66696c652d7632"
	rec := Rec{Site: "example.org", Key: "user:alice", Value: "profile-v2", Ver: 7, Origin: "edge-1"}
	if got := hex.EncodeToString(EncodeRec(rec)); got != golden {
		t.Errorf("EncodeRec = %s, want %s", got, golden)
	}
	raw, _ := hex.DecodeString(golden)
	if got, err := DecodeRec(raw); err != nil || got != rec {
		t.Errorf("DecodeRec(golden) = %+v, %v", got, err)
	}
}
