package store

import (
	"fmt"
	"testing"
)

// RaiseFence is EnqueueRaiseFence followed by its commit's Wait: the
// synchronous floor raise these tests and TestLogRecordGolden write with.
// Production raises a floor only through state.Store.FencedPutVersioned,
// which waits after releasing its caller's apply lock.
func (l *Log) RaiseFence(site, guard, holder string, token uint64) error {
	return wait(l.EnqueueRaiseFence(site, guard, holder, token))
}

// fencedPut is EnqueueFencedPut followed by its commit's Wait. Production
// writes a fenced value only through state.Store.FencedPutVersioned, as a
// versioned record.
func fencedPut(l *Log, site, key, value, guard, holder string, token uint64) error {
	return wait(l.EnqueueFencedPut(site, key, value, guard, holder, token))
}

// encodeDelete and del write the delete record ('D') that no writer emits
// any more: a data directory from before every write became a versioned
// record holds them, and replay still reads them.
func encodeDelete(site, key string) []byte { return encodeRecord(opDelete, 0, site, key) }

func del(l *Log, site, key string) error {
	return wait(l.enqueue(func() ([]byte, error) {
		l.t.del(site, key)
		return encodeDelete(site, key), nil
	}))
}

func TestMemFenceAdmission(t *testing.T) {
	m := memLog(t, 0)

	// Token zero is never admitted, even against an empty floor.
	if err := fencedPut(m, "s", "k", "v", "lock", "node-a", 0); err != ErrFencedStale {
		t.Fatalf("token 0 admitted: %v", err)
	}

	if err := fencedPut(m, "s", "k", "v1", "lock", "node-a", 1); err != nil {
		t.Fatal(err)
	}
	if tok, holder := m.FenceToken("s", "lock"); tok != 1 || holder != "node-a" {
		t.Fatalf("floor = %d/%q", tok, holder)
	}

	// The holdership that owns the floor keeps writing at the same token.
	if err := fencedPut(m, "s", "k", "v2", "lock", "node-a", 1); err != nil {
		t.Fatal(err)
	}
	// A different holder at the same token is a split-brain double-grant:
	// node-a claimed token 1 here first, so node-b is fenced off.
	if err := fencedPut(m, "s", "k", "vx", "lock", "node-b", 1); err != ErrFencedStale {
		t.Fatalf("same-token other-holder admitted: %v", err)
	}
	if v, _ := m.Get("s", "k"); v != "v2" {
		t.Fatalf("fenced write landed: k=%q", v)
	}

	// A higher token always wins and deposes the old holdership...
	if err := fencedPut(m, "s", "k", "v3", "lock", "node-b", 2); err != nil {
		t.Fatal(err)
	}
	// ...after which the deposed holder's late writes are rejected.
	if err := fencedPut(m, "s", "k2", "late", "lock", "node-a", 1); err != ErrFencedStale {
		t.Fatalf("deposed write admitted: %v", err)
	}
	if _, ok := m.Get("s", "k2"); ok {
		t.Fatal("deposed write landed")
	}

	// Guards are independent: a different guard starts from an empty floor.
	if err := fencedPut(m, "s", "k3", "v", "other", "node-a", 1); err != nil {
		t.Fatal(err)
	}
	// And RaiseFence advances the floor without touching any value.
	if err := m.RaiseFence("s", "lock", "node-c", 5); err != nil {
		t.Fatal(err)
	}
	if tok, holder := m.FenceToken("s", "lock"); tok != 5 || holder != "node-c" {
		t.Fatalf("raised floor = %d/%q", tok, holder)
	}
	if err := m.RaiseFence("s", "lock", "node-b", 2); err != ErrFencedStale {
		t.Fatalf("stale raise accepted: %v", err)
	}
}

func TestLogFenceQuotaFailureLeavesFloor(t *testing.T) {
	m := memLog(t, 8)
	if err := fencedPut(m, "s", "key-too-big", "a value far over quota", "lock", "node-a", 1); err != ErrQuotaExceeded {
		t.Fatalf("err = %v", err)
	}
	// The floor must not advance for a write that never landed, or a
	// retry at the same token by the same holder would be self-fenced.
	if tok, _ := m.FenceToken("s", "lock"); tok != 0 {
		t.Fatalf("floor raised to %d by failed put", tok)
	}
}

func TestLogFenceFloorSurvivesCrash(t *testing.T) {
	fs := NewMemFS()
	l, err := OpenLog(fs, LogConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := fencedPut(l, "s", "k", "v1", "lock", "node-a", 1); err != nil {
		t.Fatal(err)
	}
	if err := fencedPut(l, "s", "k", "v2", "lock", "node-b", 2); err != nil {
		t.Fatal(err)
	}
	// A floor raise without a value write (the LWW-superseded case) must
	// be just as durable.
	if err := l.RaiseFence("s", "lock", "node-c", 3); err != nil {
		t.Fatal(err)
	}
	l.abandon() // crash

	nl, err := OpenLog(fs, LogConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer nl.Close()
	if tok, holder := nl.FenceToken("s", "lock"); tok != 3 || holder != "node-c" {
		t.Fatalf("recovered floor = %d/%q, want 3/node-c", tok, holder)
	}
	if v, _ := nl.Get("s", "k"); v != "v2" {
		t.Fatalf("recovered value = %q", v)
	}
	// The deposed holders stay deposed after recovery.
	if err := fencedPut(nl, "s", "k", "late", "lock", "node-a", 1); err != ErrFencedStale {
		t.Fatalf("deposed write admitted after recovery: %v", err)
	}
}

func TestLogFenceFloorSurvivesCompaction(t *testing.T) {
	fs := NewMemFS()
	cfg := LogConfig{CompactBytes: 256}
	l, err := OpenLog(fs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := fencedPut(l, "s", "k", "v", "lock", "node-a", 7); err != nil {
		t.Fatal(err)
	}
	// Churn plain writes until the WAL holding the fenced put is rolled
	// away and only the snapshot carries the floor.
	for i := 0; i < 64; i++ {
		if err := l.Put("s", fmt.Sprintf("pad%d", i%4), fmt.Sprintf("value-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if l.Stats().Compactions == 0 {
		t.Fatal("no compaction happened; raise the churn")
	}
	l.abandon()

	nl, err := OpenLog(fs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer nl.Close()
	if tok, holder := nl.FenceToken("s", "lock"); tok != 7 || holder != "node-a" {
		t.Fatalf("post-compaction floor = %d/%q, want 7/node-a", tok, holder)
	}
	if v, _ := nl.Get("s", "k"); v != "v" {
		t.Fatalf("post-compaction value = %q", v)
	}
}

// TestFencedPutTornTail tears the final fenced-put record at every byte
// boundary: recovery keeps exactly the complete prefix — value and floor
// move together, so a torn record leaves neither.
func TestFencedPutTornTail(t *testing.T) {
	records := [][]byte{
		encodeFencedPut("s", "k", "v1", "lock", "node-a", 1),
		encodeFence("s", "lock", "node-b", 2),
		encodeFencedPut("s", "k", "v3", "lock", "node-c", 3),
	}
	full := buildLogBytes(records...)
	prefixLen := len(buildLogBytes(records[:2]...))
	walFile := walName(1)

	for cut := prefixLen; cut <= len(full); cut++ {
		cfs := NewMemFS()
		w, _ := cfs.Create(walFile)
		w.Write(full[:cut])
		w.Close()
		nl, err := OpenLog(cfs, LogConfig{})
		if err != nil {
			t.Fatalf("cut at %d: open: %v", cut, err)
		}
		wantTok, wantHolder, wantVal := uint64(2), "node-b", "v1"
		if cut == len(full) {
			wantTok, wantHolder, wantVal = 3, "node-c", "v3"
		}
		if tok, holder := nl.FenceToken("s", "lock"); tok != wantTok || holder != wantHolder {
			t.Fatalf("cut at %d: floor = %d/%q, want %d/%q", cut, tok, holder, wantTok, wantHolder)
		}
		if v, _ := nl.Get("s", "k"); v != wantVal {
			t.Fatalf("cut at %d: value = %q, want %q", cut, v, wantVal)
		}
		nl.Close()
	}
}

func TestDumpWALRecordsAdmissionOrder(t *testing.T) {
	fs := NewMemFS()
	l, err := OpenLog(fs, LogConfig{})
	if err != nil {
		t.Fatal(err)
	}
	l.Put("s", "plain", "x")
	fencedPut(l, "s", "k", "v1", "lock", "node-a", 1)
	fencedPut(l, "s", "k", "v2", "lock", "node-a", 1)
	l.RaiseFence("s", "lock", "node-b", 2)
	l.abandon()
	// A second process generation appends to a fresh WAL file; DumpWAL
	// must stitch the files in order.
	nl, err := OpenLog(fs, LogConfig{})
	if err != nil {
		t.Fatal(err)
	}
	fencedPut(nl, "s", "k", "v3", "lock", "node-b", 2)
	nl.Close()

	recs, err := DumpWAL(fs)
	if err != nil {
		t.Fatal(err)
	}
	var fenced []LogRecord
	for _, r := range recs {
		if r.Op == opFencedPut || r.Op == opFence {
			fenced = append(fenced, r)
		}
	}
	want := []LogRecord{
		{Op: opFencedPut, Site: "s", Key: "k", Value: "v1", Guard: "lock", Holder: "node-a", Token: 1},
		{Op: opFencedPut, Site: "s", Key: "k", Value: "v2", Guard: "lock", Holder: "node-a", Token: 1},
		{Op: opFence, Site: "s", Guard: "lock", Holder: "node-b", Token: 2},
		{Op: opFencedPut, Site: "s", Key: "k", Value: "v3", Guard: "lock", Holder: "node-b", Token: 2},
	}
	if len(fenced) != len(want) {
		t.Fatalf("dumped %d fenced records, want %d: %+v", len(fenced), len(want), fenced)
	}
	for i := range want {
		if fenced[i] != want[i] {
			t.Fatalf("record %d = %+v, want %+v", i, fenced[i], want[i])
		}
	}
}
