package lease

import (
	"testing"

	"nakika/internal/state"
)

func TestAcquireLifecycle(t *testing.T) {
	var rec Record

	// Fresh grant of a never-held lease.
	rec, out := Acquire(rec, "node-a", 100, 50, false)
	if out != Granted || rec.Holder != "node-a" || rec.Token != 1 || rec.Expires != 150 {
		t.Fatalf("fresh acquire = %+v, %v", rec, out)
	}

	// The holder re-acquiring before expiry renews: token kept, expiry
	// extended.
	rec, out = Acquire(rec, "node-a", 120, 50, false)
	if out != Renewed || rec.Token != 1 || rec.Expires != 170 {
		t.Fatalf("renew via acquire = %+v, %v", rec, out)
	}

	// Another node is denied while the holder is live and unexpired.
	if _, out = Acquire(rec, "node-b", 130, 50, false); out != Denied {
		t.Fatalf("contended acquire = %v, want denied", out)
	}

	// After expiry anyone may take over, with a bumped token.
	rec, out = Acquire(rec, "node-b", 200, 50, false)
	if out != ExpiryGrant || rec.Holder != "node-b" || rec.Token != 2 {
		t.Fatalf("expiry takeover = %+v, %v", rec, out)
	}

	// A detector-visible crash lets an heir in before expiry.
	rec, out = Acquire(rec, "node-c", 210, 50, true)
	if out != CrashGrant || rec.Holder != "node-c" || rec.Token != 3 {
		t.Fatalf("crash takeover = %+v, %v", rec, out)
	}

	// Release, then an immediate grant.
	rec, ok := Release(rec, "node-c", 3)
	if !ok || !rec.Released {
		t.Fatalf("release = %+v, %v", rec, ok)
	}
	rec, out = Acquire(rec, "node-a", 215, 50, false)
	if out != Granted || rec.Token != 4 {
		t.Fatalf("acquire after release = %+v, %v", rec, out)
	}
}

func TestHolderReacquireAfterOwnExpiryBumpsToken(t *testing.T) {
	rec, _ := Acquire(Record{}, "node-a", 0, 10, false)
	// The same holder coming back after its own TTL lapsed is a fresh
	// holdership: its buffered writes from before the lapse must be
	// distinguishable, so the token bumps.
	rec, out := Acquire(rec, "node-a", 50, 10, false)
	if out != ExpiryGrant || rec.Token != 2 {
		t.Fatalf("re-acquire after own expiry = %+v, %v (token must bump)", rec, out)
	}
}

func TestRenewChecksToken(t *testing.T) {
	rec, _ := Acquire(Record{}, "node-a", 0, 100, false)
	rec, _ = Acquire(rec, "node-b", 200, 100, false) // expiry takeover, token 2

	// A renewal buffered from the deposed holdership (old token) must not
	// resurrect it.
	if _, ok := Renew(rec, "node-a", 1, 250, 100); ok {
		t.Fatal("stale renew succeeded")
	}
	if _, ok := Release(rec, "node-a", 1); ok {
		t.Fatal("stale release succeeded")
	}
	// The live holdership renews fine.
	rec2, ok := Renew(rec, "node-b", 2, 250, 100)
	if !ok || rec2.Expires != 350 || rec2.Token != 2 {
		t.Fatalf("live renew = %+v, %v", rec2, ok)
	}
	// But not after expiry: the holdership lapsed, only Acquire (with its
	// token bump) may continue.
	if _, ok := Renew(rec, "node-b", 2, 400, 100); ok {
		t.Fatal("post-expiry renew succeeded")
	}
}

func TestHeld(t *testing.T) {
	if (Record{}).Held(0) {
		t.Fatal("zero record held")
	}
	rec, _ := Acquire(Record{}, "node-a", 0, 100, false)
	if !rec.Held(50) || rec.Held(100) || rec.Held(150) {
		t.Fatalf("Held windows wrong for %+v", rec)
	}
	rel, _ := Release(rec, "node-a", 1)
	if rel.Held(50) {
		t.Fatal("released record held")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	cases := []Record{
		{},
		{Holder: "node-a", Token: 1, Expires: 12345},
		{Holder: "node-b", Token: 1<<63 + 7, Expires: -42, Released: true},
		{Holder: "", Token: 9, Expires: 0, Released: false},
	}
	for _, rec := range cases {
		got, ok := Decode(Encode(rec))
		if !ok || got != rec {
			t.Fatalf("round trip %+v = %+v, %v", rec, got, ok)
		}
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	for _, s := range []string{"", "plain value", "\x00", "\x00\xff\xff\xff", Encode(Record{Holder: "x", Token: 1}) + "trailing"} {
		if rec, ok := Decode(s); ok {
			t.Fatalf("Decode(%q) = %+v, want reject", s, rec)
		}
	}
}

func TestKeyNamespace(t *testing.T) {
	k := Key("ctr")
	if k != KeyPrefix+"ctr" {
		t.Fatalf("Key(%q) = %q", "ctr", k)
	}
	// Lease records live in the internal namespace, which site scripts can
	// neither read nor write through the State vocabulary.
	if !state.IsInternalKey(k) {
		t.Fatalf("lease key %q is outside the internal namespace", k)
	}
}
