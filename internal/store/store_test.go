package store

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// reopen closes l and opens a fresh engine over the same FS.
// siteBytes returns the bytes site's keys and values occupy in l's table.
func siteBytes(l *Log, site string) int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.t.bytes[site]
}

func reopen(t *testing.T, fs FS, l *Log, cfg LogConfig) *Log {
	t.Helper()
	if l != nil {
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	}
	nl, err := OpenLog(fs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return nl
}

func TestMemQuota(t *testing.T) {
	m := memLog(t, 10)
	if err := m.Put("s", "k", "12345"); err != nil {
		t.Fatal(err)
	}
	if err := m.Put("s", "k2", "123456789"); err != ErrQuotaExceeded {
		t.Fatalf("err = %v, want ErrQuotaExceeded", err)
	}
	// Overwriting within budget is fine.
	if err := m.Put("s", "k", "123456789"); err != nil {
		t.Fatal(err)
	}
	if got := siteBytes(m, "s"); got != 10 {
		t.Fatalf("bytes = %d", got)
	}
	del(m, "s", "k")
	if got := siteBytes(m, "s"); got != 0 {
		t.Fatalf("bytes after delete = %d", got)
	}
}

func TestLogPutGetRecover(t *testing.T) {
	fs := NewMemFS()
	l, err := OpenLog(fs, LogConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if err := l.Put("site-a", fmt.Sprintf("k%02d", i), fmt.Sprintf("v%02d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Put("site-b", "x", "y"); err != nil {
		t.Fatal(err)
	}
	if err := del(l, "site-a", "k00"); err != nil {
		t.Fatal(err)
	}

	l = reopen(t, fs, l, LogConfig{})
	defer l.Close()
	if _, ok := l.Get("site-a", "k00"); ok {
		t.Error("deleted key survived recovery")
	}
	if v, ok := l.Get("site-a", "k49"); !ok || v != "v49" {
		t.Errorf("k49 = %q, %v", v, ok)
	}
	if v, ok := l.Get("site-b", "x"); !ok || v != "y" {
		t.Errorf("site-b x = %q, %v", v, ok)
	}
	if got := len(l.Keys("site-a")); got != 49 {
		t.Errorf("site-a keys = %d, want 49", got)
	}
	if st := l.Stats(); st.Replayed != 52 {
		t.Errorf("replayed = %d, want 52", st.Replayed)
	}
	// Byte accounting is rebuilt exactly.
	if got := siteBytes(l, "site-b"); got != 2 {
		t.Errorf("site-b bytes = %d, want 2", got)
	}
}

func TestLogQuota(t *testing.T) {
	fs := NewMemFS()
	l, err := OpenLog(fs, LogConfig{Quota: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.Put("s", "key", "12345"); err != nil {
		t.Fatal(err)
	}
	if err := l.Put("s", "key2", "123456"); err != ErrQuotaExceeded {
		t.Fatalf("err = %v, want ErrQuotaExceeded", err)
	}
	// The rejected write must not have been logged: recovery sees only the
	// accepted one.
	l = reopen(t, fs, l, LogConfig{Quota: 8})
	if got := l.Keys("s"); len(got) != 1 || got[0] != "key" {
		t.Fatalf("keys after recovery = %v", got)
	}
}

func TestLogAbandonLosesNothingAcknowledged(t *testing.T) {
	fs := NewMemFS()
	l, err := OpenLog(fs, LogConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := l.Put("s", fmt.Sprintf("k%d", i), "v"); err != nil {
			t.Fatal(err)
		}
	}
	l.Abandon()
	if err := l.Put("s", "after", "crash"); err != ErrClosed {
		t.Fatalf("put after abandon = %v, want ErrClosed", err)
	}
	nl, err := OpenLog(fs, LogConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer nl.Close()
	if got := len(nl.Keys("s")); got != 20 {
		t.Fatalf("recovered keys = %d, want 20", got)
	}
	if _, ok := nl.Get("s", "after"); ok {
		t.Fatal("unacknowledged post-crash write recovered")
	}
}

func TestLogCompaction(t *testing.T) {
	fs := NewMemFS()
	cfg := LogConfig{CompactBytes: 512}
	l, err := OpenLog(fs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Overwrite one key many times: the live state stays tiny while the
	// log grows, so compaction must fire and shrink the file set.
	for i := 0; i < 500; i++ {
		if err := l.Put("s", "hot", fmt.Sprintf("value-%04d", i)); err != nil {
			t.Fatal(err)
		}
	}
	st := l.Stats()
	if st.Compactions == 0 {
		t.Fatal("no compaction ran")
	}
	names, _ := fs.List("")
	if len(names) > 3 {
		t.Fatalf("compaction left %d files: %v", len(names), names)
	}
	l = reopen(t, fs, l, cfg)
	defer l.Close()
	if v, ok := l.Get("s", "hot"); !ok || v != "value-0499" {
		t.Fatalf("hot = %q, %v after compaction+recovery", v, ok)
	}
	// Replay cost is bounded by the snapshot, not the full history.
	if st := l.Stats(); st.Replayed > 100 {
		t.Errorf("replayed %d records; snapshot should have truncated history", st.Replayed)
	}
}

func TestLogRecoverAcrossCompactionCrash(t *testing.T) {
	// A snapshot plus surviving older WALs must recover consistently even
	// when GC did not finish: replaying records already captured by the
	// snapshot is idempotent.
	fs := NewMemFS()
	l, err := OpenLog(fs, LogConfig{CompactBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	l.Put("s", "a", "1")
	l.Put("s", "b", "2")
	l.maybeCompactForce(t)
	l.Put("s", "a", "3")
	l.Abandon()

	nl, err := OpenLog(fs, LogConfig{CompactBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer nl.Close()
	if v, _ := nl.Get("s", "a"); v != "3" {
		t.Fatalf("a = %q, want 3", v)
	}
	if v, _ := nl.Get("s", "b"); v != "2" {
		t.Fatalf("b = %q, want 2", v)
	}
}

// maybeCompactForce runs one compaction cycle regardless of size.
func (l *Log) maybeCompactForce(t *testing.T) {
	t.Helper()
	old := l.cfg.CompactBytes
	l.cfg.CompactBytes = 1
	l.maybeCompact()
	l.cfg.CompactBytes = old
	if l.Stats().Compactions == 0 {
		t.Fatal("forced compaction did not run")
	}
}

func TestGroupCommitBatchesFsyncs(t *testing.T) {
	// With a sync that takes real time, concurrent writers must share
	// fsyncs: N writers, far fewer than N syncs.
	fs := &slowSyncFS{FS: NewMemFS(), delay: 2 * time.Millisecond}
	l, err := OpenLog(fs, LogConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	const writers = 32
	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := l.Put("s", fmt.Sprintf("k%d", i), "v"); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	if syncs := l.Stats().Syncs; syncs >= writers {
		t.Errorf("group commit issued %d syncs for %d writers", syncs, writers)
	}
	// Every write is durable regardless of batching.
	if got := len(l.Keys("s")); got != writers {
		t.Fatalf("keys = %d, want %d", got, writers)
	}
}

func TestSequentialPutsSyncPerRecord(t *testing.T) {
	// Group commit only batches writers that overlap: each of ten puts in
	// sequence is durable before the next starts, so each pays its own sync.
	fs := NewMemFS()
	l, err := OpenLog(fs, LogConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i := 0; i < 10; i++ {
		if err := l.Put("s", fmt.Sprintf("k%d", i), "v"); err != nil {
			t.Fatal(err)
		}
	}
	if syncs := l.Stats().Syncs; syncs != 10 {
		t.Errorf("syncs = %d, want one per record", syncs)
	}
}

// slowSyncFS delays Sync so concurrent WaitDurable calls overlap.
type slowSyncFS struct {
	FS
	delay time.Duration
}

func (s *slowSyncFS) OpenAppend(name string) (File, error) {
	f, err := s.FS.OpenAppend(name)
	if err != nil {
		return nil, err
	}
	return &slowSyncFile{File: f, delay: s.delay}, nil
}

type slowSyncFile struct {
	File
	delay time.Duration
}

func (f *slowSyncFile) Sync() error {
	time.Sleep(f.delay)
	return f.File.Sync()
}

func TestPowerFailureLosesOnlyUnsynced(t *testing.T) {
	// A power failure (unsynced bytes dropped) must still recover a
	// consistent prefix: every write acknowledged before the failure
	// survives, and replay stops cleanly at the torn tail.
	fs := NewMemFS()
	l, err := OpenLog(fs, LogConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := l.Put("s", fmt.Sprintf("k%d", i), "v"); err != nil {
			t.Fatal(err)
		}
	}
	l.Abandon()
	fs.DropUnsynced()
	nl, err := OpenLog(fs, LogConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer nl.Close()
	// Every Put returned only after its fsync, so nothing acknowledged is
	// lost even under power failure.
	if got := len(nl.Keys("s")); got != 10 {
		t.Fatalf("recovered keys = %d, want 10", got)
	}
}

func TestDirFSRoundTrip(t *testing.T) {
	dir := t.TempDir()
	fs, err := NewDirFS(dir)
	if err != nil {
		t.Fatal(err)
	}
	l, err := OpenLog(Sub(fs, "state"), LogConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Put("s", "k", "real-disk"); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	fs2, err := NewDirFS(dir)
	if err != nil {
		t.Fatal(err)
	}
	nl, err := OpenLog(Sub(fs2, "state"), LogConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer nl.Close()
	if v, ok := nl.Get("s", "k"); !ok || v != "real-disk" {
		t.Fatalf("recovered %q, %v from real dir", v, ok)
	}
	if names, _ := fs2.List("state/"); len(names) == 0 {
		t.Error("no files under state/")
	}
}
