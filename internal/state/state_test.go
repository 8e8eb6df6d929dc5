package state

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"nakika/internal/store"
)

// newStore returns a store on a fresh in-memory log, as a node without a data
// directory has, with the given per-site quota (zero means DefaultQuota).
func newStore(quota int64) *Store {
	if quota <= 0 {
		quota = DefaultQuota
	}
	kv, err := store.OpenLog(store.NewMemFS(), store.LogConfig{Quota: quota})
	if err != nil {
		panic(err) // an empty MemFS cannot fail to open
	}
	return NewStoreBacked(kv)
}

// write stores value under key as the next version after the one s holds,
// or a tombstone when deleted, as the key's owning node does.
func write(s *Store, site, key, value string, deleted bool) error {
	ver, _, _, _, _ := s.GetVersioned(site, key)
	_, err := putNow(s, Rec{Site: site, Key: key, Ver: ver + 1, Origin: "n", Delete: deleted, Value: value})
	return err
}

// readLive reads key's value; a tombstone reads as a miss.
func readLive(s *Store, site, key string) (string, bool) {
	_, _, deleted, value, ok := s.GetVersioned(site, key)
	return value, ok && !deleted
}

func TestStorePutGetDelete(t *testing.T) {
	s := newStore(0)
	if _, ok := readLive(s, "siteA", "user:1"); ok {
		t.Error("unexpected hit")
	}
	if err := write(s, "siteA", "user:1", `{"name":"maria"}`, false); err != nil {
		t.Fatal(err)
	}
	v, ok := readLive(s, "siteA", "user:1")
	if !ok || v != `{"name":"maria"}` {
		t.Errorf("got %q %v", v, ok)
	}
	// Partitioning: siteB cannot see siteA's keys.
	if _, ok := readLive(s, "siteB", "user:1"); ok {
		t.Error("partitions must be isolated")
	}
	if err := write(s, "siteA", "user:1", "", true); err != nil {
		t.Fatal(err)
	}
	if _, ok := readLive(s, "siteA", "user:1"); ok {
		t.Error("deleted key should be gone")
	}
	if err := write(s, "siteA", "never-existed", "", true); err != nil {
		t.Fatal(err)
	}
	if _, ok := readLive(s, "siteA", "never-existed"); ok {
		t.Error("a tombstone alone must read as a miss")
	}
}

// TestStoreQuota: the quota counts each record's key and stored encoding
// (11 bytes of version, origin and op here, beside the value).
func TestStoreQuota(t *testing.T) {
	s := newStore(120)
	if err := write(s, "site", "k1", strings.Repeat("x", 50), false); err != nil {
		t.Fatal(err)
	}
	if err := write(s, "site", "k2", strings.Repeat("y", 60), false); err != store.ErrQuotaExceeded {
		t.Errorf("expected quota error, got %v", err)
	}
	// Overwriting within quota works (delta accounting).
	if err := write(s, "site", "k1", strings.Repeat("z", 60), false); err != nil {
		t.Errorf("overwrite within quota should succeed: %v", err)
	}
	// Another site has its own quota.
	if err := write(s, "other", "k", strings.Repeat("w", 90), false); err != nil {
		t.Errorf("other site's quota is independent: %v", err)
	}
	// A tombstone frees its value's bytes: a put that does not fit beside
	// k1 fits once k1 is deleted.
	if err := write(s, "site", "k3", strings.Repeat("v", 90), false); err != store.ErrQuotaExceeded {
		t.Errorf("expected quota error beside k1, got %v", err)
	}
	if err := write(s, "site", "k1", "", true); err != nil {
		t.Fatal(err)
	}
	if err := write(s, "site", "k3", strings.Repeat("v", 90), false); err != nil {
		t.Errorf("put after delete should fit: %v", err)
	}
}

func TestStoreKeys(t *testing.T) {
	s := newStore(0)
	for _, k := range []string{"c", "a", "b"} {
		if err := write(s, "site", k, "v", false); err != nil {
			t.Fatal(err)
		}
	}
	keys := s.Keys("site")
	if len(keys) != 3 || keys[0] != "a" || keys[2] != "c" {
		t.Errorf("keys = %v", keys)
	}
	if len(s.Keys("empty-site")) != 0 {
		t.Error("empty site should have no keys")
	}
}

// TestReplicaPropagation: a record applied at every replica, as an owner
// pushes it to its successors, reads the same at each, and so does the
// tombstone a later owner writes over it (three nodes holding one site's
// user registrations, as in SPECweb99).
func TestReplicaPropagation(t *testing.T) {
	stores := []*Store{newStore(0), newStore(0), newStore(0)}
	push := func(rec Rec) {
		for i, s := range stores {
			if applied, err := putNow(s, rec); err != nil || !applied {
				t.Fatalf("replica %d: %v applied=%v, %v", i, rec, applied, err)
			}
		}
	}
	const site = "specweb.example.org"
	push(Rec{Site: site, Key: "user:100", Ver: 1, Origin: "node-0", Value: "profile-data"})
	for i, s := range stores {
		if v, ok := readLive(s, site, "user:100"); !ok || v != "profile-data" {
			t.Errorf("replica %d: got %q %v", i, v, ok)
		}
	}
	push(Rec{Site: site, Key: "user:100", Ver: 2, Origin: "node-2", Delete: true})
	for i, s := range stores {
		if _, ok := readLive(s, site, "user:100"); ok {
			t.Errorf("replica %d still has the deleted key", i)
		}
	}
}

// Property: after any sequence of puts on random replicas, each stamped as
// the next version at the replica that takes it and pushed to the others
// either at once or only at the end, newest first, all replicas converge to
// identical contents.
func TestPropertyReplicasConverge(t *testing.T) {
	f := func(ops []struct {
		Replica uint8
		Key     uint8
		Value   string
		Late    bool
	}) bool {
		stores := []*Store{newStore(0), newStore(0), newStore(0)}
		var late []Rec
		for _, op := range ops {
			r := int(op.Replica) % 3
			key := fmt.Sprintf("k%d", op.Key%16)
			ver, _, _, _, _ := stores[r].GetVersioned("s", key)
			rec := Rec{Site: "s", Key: key, Ver: ver + 1, Origin: fmt.Sprintf("n%d", r), Value: op.Value}
			if _, err := putNow(stores[r], rec); err != nil {
				return false
			}
			if op.Late {
				late = append(late, rec)
				continue
			}
			for _, s := range stores {
				if _, err := putNow(s, rec); err != nil {
					return false
				}
			}
		}
		for i := len(late) - 1; i >= 0; i-- {
			for _, s := range stores {
				if _, err := putNow(s, late[i]); err != nil {
					return false
				}
			}
		}
		// Compare every replica's view of every key.
		for k := 0; k < 16; k++ {
			key := fmt.Sprintf("k%d", k)
			v0, ok0 := readLive(stores[0], "s", key)
			for i := 1; i < 3; i++ {
				vi, oki := readLive(stores[i], "s", key)
				if ok0 != oki || v0 != vi {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// pending returns the number of unposted entries held for site.
func (l *AccessLog) pending(site string) int {
	s := l.buffer(site)
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.count
}

func TestAccessLog(t *testing.T) {
	l := NewAccessLog(time.Now)
	l.SetPostURL("med.nyu.edu", "http://med.nyu.edu/logs/upload")
	l.Append("med.nyu.edu", FormatAccess("10.0.0.1", "GET", "http://med.nyu.edu/m1.html", 200, 5120, 42*time.Millisecond))
	l.Append("med.nyu.edu", FormatAccess("10.0.0.2", "GET", "http://med.nyu.edu/m2.html", 200, 1024, 7*time.Millisecond))
	l.Append("other.org", "something")
	if l.pending("med.nyu.edu") != 2 {
		t.Errorf("pending = %d", l.pending("med.nyu.edu"))
	}
	if !l.Posting("med.nyu.edu") || l.Posting("other.org") {
		t.Error("only the site that named a URL posts")
	}

	posted := map[string][]string{}
	post := func(site, url string, lines []string) error {
		posted[site+"|"+url] = append([]string(nil), lines...)
		return nil
	}
	if err := l.Flush(post); err != nil {
		t.Fatal(err)
	}
	if len(posted) != 1 {
		t.Errorf("posted to %v, want the one configured URL", posted)
	}
	lines := posted["med.nyu.edu|http://med.nyu.edu/logs/upload"]
	if len(lines) != 2 || !strings.Contains(lines[0], "m1.html") {
		t.Errorf("posted lines = %v", lines)
	}
	if l.pending("med.nyu.edu") != 0 {
		t.Error("posted entries should be drained")
	}
}

// TestAccessLogKeepsNoBufferWithoutURL: an entry for a site whose script
// named no post URL could never be posted, so none is kept. A node sent
// 10 000 distinct Host headers holds no buffer for any of them.
func TestAccessLogKeepsNoBufferWithoutURL(t *testing.T) {
	l := NewAccessLog(time.Now)
	for i := 0; i < 10000; i++ {
		l.Append("site-"+strconv.Itoa(i)+".example", "10.0.0.1 GET / 200 512 1ms")
	}
	if len(l.sites) != 0 {
		t.Fatalf("%d site buffers after appends with no post URL, want 0", len(l.sites))
	}
}

func TestAccessLogRetriesOnFailure(t *testing.T) {
	l := NewAccessLog(time.Now)
	l.SetPostURL("site", "http://site/logs")
	l.Append("site", "entry-1")
	attempts := 0
	failing := func(site, url string, lines []string) error {
		attempts++
		return fmt.Errorf("origin unreachable")
	}
	if err := l.Flush(failing); err == nil {
		t.Error("expected flush error")
	}
	if l.pending("site") != 1 {
		t.Error("entries must be retained when the post fails")
	}
	ok := func(site, url string, lines []string) error { return nil }
	if err := l.Flush(ok); err != nil {
		t.Fatal(err)
	}
	if l.pending("site") != 0 || attempts != 1 {
		t.Errorf("pending=%d attempts=%d", l.pending("site"), attempts)
	}
}

// TestAccessLogBounded: a site's buffer stops at maxPendingLog entries, the
// oldest making way for the newest, and every entry lost is counted.
func TestAccessLogBounded(t *testing.T) {
	const overflow = 100
	l := NewAccessLog(time.Now)
	l.SetPostURL("site", "http://site/logs")
	for i := 0; i < maxPendingLog+overflow; i++ {
		l.Append("site", strconv.Itoa(i))
	}
	if l.pending("site") != maxPendingLog || l.Dropped() != overflow {
		t.Fatalf("pending = %d, dropped = %d; want %d, %d", l.pending("site"), l.Dropped(), maxPendingLog, overflow)
	}
	var lines []string
	err := l.Flush(func(site, url string, batch []string) error {
		lines = batch
		// Entries that arrive during the post push out part of what is being
		// posted; the rest of the posted batch is all Flush may remove.
		for i := 0; i < overflow; i++ {
			l.Append("site", "late")
		}
		return nil
	})
	if err != nil || len(lines) != maxPendingLog {
		t.Fatalf("flushed %d lines, %v", len(lines), err)
	}
	if !strings.HasSuffix(lines[0], " "+strconv.Itoa(overflow)) || !strings.HasSuffix(lines[len(lines)-1], " "+strconv.Itoa(maxPendingLog+overflow-1)) {
		t.Errorf("flushed %q ... %q: the newest %d entries should have survived, in order", lines[0], lines[len(lines)-1], maxPendingLog)
	}
	if l.pending("site") != overflow || l.Dropped() != 2*overflow {
		t.Errorf("after flush: pending = %d, dropped = %d; want %d, %d",
			l.pending("site"), l.Dropped(), overflow, 2*overflow)
	}
}

func TestConcurrentStoreAccess(t *testing.T) {
	s := newStore(1 << 20)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			site := fmt.Sprintf("site-%d", g%2)
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("k%d", i%20)
				switch i % 3 {
				case 0:
					_ = write(s, site, key, "value", false)
				case 1:
					readLive(s, site, key)
				default:
					_ = write(s, site, key, "", true)
				}
			}
		}(g)
	}
	wg.Wait()
}
