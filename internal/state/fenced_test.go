package state

import (
	"testing"

	"nakika/internal/store"
)

// fencedPutNow is FencedPutVersioned followed by its commit's Wait.
func fencedPutNow(s *Store, rec Rec, guard, holder string, token uint64) (bool, error) {
	applied, c, err := s.FencedPutVersioned(rec, guard, holder, token)
	if err == nil {
		err = c.Wait()
	}
	return applied, err
}

func TestFencedPutVersioned(t *testing.T) {
	s := newStore(0)
	guard := "\x00nk:lease:lock"

	rec := Rec{Site: "s", Key: "k", Ver: 1, Origin: "node-a", Value: "v1"}
	applied, err := fencedPutNow(s, rec, guard, "node-a", 1)
	if err != nil || !applied {
		t.Fatalf("first fenced put = %v, %v", applied, err)
	}
	if _, _, _, v, _ := s.GetVersioned("s", "k"); v != "v1" {
		t.Fatalf("value = %q", v)
	}

	// A deposed holdership (lower token) is rejected even with a winning
	// LWW version: fencing overrides last-writer-wins.
	late := Rec{Site: "s", Key: "k", Ver: 9, Origin: "node-a", Value: "late"}
	if _, err := fencedPutNow(s, late, guard, "node-a", 0); err != store.ErrFencedStale {
		t.Fatalf("token 0 err = %v", err)
	}
	newer := Rec{Site: "s", Key: "k", Ver: 2, Origin: "node-b", Value: "v2"}
	if applied, err := fencedPutNow(s, newer, guard, "node-b", 2); err != nil || !applied {
		t.Fatalf("token 2 put = %v, %v", applied, err)
	}
	if _, err := fencedPutNow(s, late, guard, "node-a", 1); err != store.ErrFencedStale {
		t.Fatalf("deposed write err = %v", err)
	}
	if _, _, _, v, _ := s.GetVersioned("s", "k"); v != "v2" {
		t.Fatalf("deposed write landed: %q", v)
	}
}

func TestFencedPutVersionedLWWLossStillRaisesFloor(t *testing.T) {
	s := newStore(0)
	guard := "\x00nk:lease:lock"

	// An unfenced record already sits at a high version (e.g. repair
	// pushed it from a replica that saw more history).
	if _, err := putNow(s, Rec{Site: "s", Key: "k", Ver: 10, Origin: "node-z", Value: "vz"}); err != nil {
		t.Fatal(err)
	}
	// The fenced write loses LWW — not applied, no error — but the floor
	// advances, so an older holdership can never write here afterwards.
	rec := Rec{Site: "s", Key: "k", Ver: 3, Origin: "node-b", Value: "vb"}
	applied, err := fencedPutNow(s, rec, guard, "node-b", 5)
	if err != nil || applied {
		t.Fatalf("superseded fenced put = %v, %v", applied, err)
	}
	if _, _, _, v, _ := s.GetVersioned("s", "k"); v != "vz" {
		t.Fatalf("LWW loser overwrote: %q", v)
	}
	if tok, holder := s.Backend().FenceToken("s", guard); tok != 5 || holder != "node-b" {
		t.Fatalf("floor = %d/%q, want 5/node-b", tok, holder)
	}
	older := Rec{Site: "s", Key: "k", Ver: 11, Origin: "node-a", Value: "va"}
	if _, err := fencedPutNow(s, older, guard, "node-a", 4); err != store.ErrFencedStale {
		t.Fatalf("older holdership err = %v", err)
	}
}

// TestLeaseTombstoneRenewRace races a lease record's tombstone against a
// renew under the total LWW order: whatever order two stores apply the two
// records in, they converge on the same winner, and the fence floor —
// per-store local, never carried by LWW records — survives even when the
// tombstone wins, so a holdership deposed before the race can never write
// again afterwards.
func TestLeaseTombstoneRenewRace(t *testing.T) {
	leaseKey := "\x00nk:lease:lock"
	tomb := Rec{Site: "s", Key: leaseKey, Ver: 4, Origin: "node-a", Delete: true}
	renew := Rec{Site: "s", Key: leaseKey, Ver: 4, Origin: "node-b", Value: "renewed-record"}

	apply := func(first, second Rec) *Store {
		s := newStore(0)
		// The floor a prior holdership (token 3) established before the race.
		if _, err := fencedPutNow(s, Rec{Site: "s", Key: "data", Ver: 1, Origin: "node-b", Value: "v"}, leaseKey, "node-b", 3); err != nil {
			t.Fatal(err)
		}
		for _, rec := range []Rec{first, second} {
			if _, err := putNow(s, rec); err != nil {
				t.Fatal(err)
			}
		}
		return s
	}

	a := apply(tomb, renew)
	b := apply(renew, tomb)
	verA, origA, delA, valA, okA := a.GetVersioned("s", leaseKey)
	verB, origB, delB, valB, okB := b.GetVersioned("s", leaseKey)
	if verA != verB || origA != origB || delA != delB || valA != valB || okA != okB {
		t.Fatalf("stores diverged: (%d,%s,%v,%q,%v) vs (%d,%s,%v,%q,%v)",
			verA, origA, delA, valA, okA, verB, origB, delB, valB, okB)
	}
	// Same (ver, origin) pair would tie-break delete over put; here the
	// origins differ, so the higher origin's renew wins deterministically.
	if delA || origA != "node-b" || valA != "renewed-record" {
		t.Fatalf("winner = (%d,%s,%v,%q), want node-b's renew", verA, origA, delA, valA)
	}

	// Even if a later, higher-versioned tombstone wins outright, the floor
	// stays: the record resets (next acquire restarts at token 1) but the
	// deposed holdership's writes remain fenced.
	if _, err := putNow(a, Rec{Site: "s", Key: leaseKey, Ver: 9, Origin: "node-c", Delete: true}); err != nil {
		t.Fatal(err)
	}
	if tok, holder := a.Backend().FenceToken("s", leaseKey); tok != 3 || holder != "node-b" {
		t.Fatalf("floor after tombstone = %d/%q, want 3/node-b", tok, holder)
	}
	if _, err := fencedPutNow(a, Rec{Site: "s", Key: "data", Ver: 2, Origin: "node-a", Value: "stale"}, leaseKey, "node-a", 2); err != store.ErrFencedStale {
		t.Fatalf("deposed write after tombstone err = %v, want ErrFencedStale", err)
	}
}

func TestInternalKeysHiddenFromEnumeration(t *testing.T) {
	s := newStore(0)
	if _, err := putNow(s, Rec{Site: "s", Key: "visible", Ver: 1, Origin: "n", Value: "v"}); err != nil {
		t.Fatal(err)
	}
	leaseKey := "\x00nk:lease:lock"
	if _, err := putNow(s, Rec{Site: "s", Key: leaseKey, Ver: 1, Origin: "n", Value: "rec"}); err != nil {
		t.Fatal(err)
	}

	keys := s.KeysVersioned("s")
	if len(keys) != 1 || keys[0] != "visible" {
		t.Fatalf("KeysVersioned leaked internal keys: %v", keys)
	}
	// Repair and handoff still carry internal keys.
	found := false
	for _, rec := range s.VersionedRecords(nil) {
		if rec.Key == leaseKey {
			found = true
		}
	}
	if !found {
		t.Fatal("VersionedRecords dropped the internal key")
	}
	if !IsInternalKey(leaseKey) || IsInternalKey("visible") {
		t.Fatal("IsInternalKey misclassifies")
	}
}
