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

func TestStorePutGetDelete(t *testing.T) {
	s := newStore(0)
	if _, ok := s.Get("siteA", "user:1"); ok {
		t.Error("unexpected hit")
	}
	if err := s.Put("siteA", "user:1", `{"name":"maria"}`); err != nil {
		t.Fatal(err)
	}
	v, ok := s.Get("siteA", "user:1")
	if !ok || v != `{"name":"maria"}` {
		t.Errorf("got %q %v", v, ok)
	}
	// Partitioning: siteB cannot see siteA's keys.
	if _, ok := s.Get("siteB", "user:1"); ok {
		t.Error("partitions must be isolated")
	}
	s.Delete("siteA", "user:1")
	if _, ok := s.Get("siteA", "user:1"); ok {
		t.Error("deleted key should be gone")
	}
	s.Delete("siteA", "never-existed") // no-op
}

func TestStoreQuota(t *testing.T) {
	s := newStore(100)
	if err := s.Put("site", "k1", strings.Repeat("x", 50)); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("site", "k2", strings.Repeat("y", 60)); err != store.ErrQuotaExceeded {
		t.Errorf("expected quota error, got %v", err)
	}
	// Overwriting within quota works (delta accounting).
	if err := s.Put("site", "k1", strings.Repeat("z", 60)); err != nil {
		t.Errorf("overwrite within quota should succeed: %v", err)
	}
	// Another site has its own quota.
	if err := s.Put("other", "k", strings.Repeat("w", 90)); err != nil {
		t.Errorf("other site's quota is independent: %v", err)
	}
	// Deleting frees quota: a put that does not fit beside k1 fits once k1
	// is gone.
	if err := s.Put("site", "k3", strings.Repeat("v", 90)); err != store.ErrQuotaExceeded {
		t.Errorf("expected quota error beside k1, got %v", err)
	}
	s.Delete("site", "k1")
	if err := s.Put("site", "k3", strings.Repeat("v", 90)); err != nil {
		t.Errorf("put after delete should fit: %v", err)
	}
}

func TestStoreKeys(t *testing.T) {
	s := newStore(0)
	for _, k := range []string{"c", "a", "b"} {
		if err := s.Put("site", k, "v"); err != nil {
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

func TestBusSynchronousDelivery(t *testing.T) {
	b := NewBus()
	var got []string
	b.Subscribe("site", "node-b", func(m Message) { got = append(got, "b:"+m.Payload) })
	b.Subscribe("site", "node-c", func(m Message) { got = append(got, "c:"+m.Payload) })
	seq1 := b.Publish("site", "node-a", "update-1")
	seq2 := b.Publish("site", "node-a", "update-2")
	if seq2 <= seq1 {
		t.Error("sequence numbers should increase")
	}
	want := []string{"b:update-1", "c:update-1", "b:update-2", "c:update-2"}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("delivery[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestBusOriginatorExcluded(t *testing.T) {
	b := NewBus()
	var aGot, bGot int
	b.Subscribe("site", "node-a", func(m Message) { aGot++ })
	b.Subscribe("site", "node-b", func(m Message) { bGot++ })
	b.Publish("site", "node-a", "x")
	if aGot != 0 {
		t.Error("originator must not receive its own message")
	}
	if bGot != 1 {
		t.Error("other subscribers should receive the message")
	}
}

func TestBusSiteIsolation(t *testing.T) {
	b := NewBus()
	var got int
	b.Subscribe("site-one", "node-b", func(m Message) { got++ })
	b.Publish("site-two", "node-a", "x")
	if got != 0 {
		t.Error("messages are per-site")
	}
}

func TestReplicaPropagation(t *testing.T) {
	// Three nodes replicating one site's user registrations (the SPECweb99
	// workload's hard state).
	bus := NewBus()
	stores := []*Store{newStore(0), newStore(0), newStore(0)}
	replicas := make([]*Replica, 3)
	for i := range replicas {
		replicas[i] = &Replica{Site: "specweb.example.org", Node: fmt.Sprintf("node-%d", i), Store: stores[i], Bus: bus}
		replicas[i].Attach()
	}
	if err := replicas[0].Put("user:100", "profile-data"); err != nil {
		t.Fatal(err)
	}
	for i, r := range replicas {
		v, ok := r.Get("user:100")
		if !ok || v != "profile-data" {
			t.Errorf("replica %d: got %q %v", i, v, ok)
		}
	}
	// Deletion propagates too.
	replicas[2].Delete("user:100")
	for i, r := range replicas {
		if _, ok := r.Get("user:100"); ok {
			t.Errorf("replica %d still has the deleted key", i)
		}
	}
}

func TestReplicaOnMessageHook(t *testing.T) {
	bus := NewBus()
	var hookPayloads []string
	a := &Replica{Site: "s", Node: "a", Store: newStore(0), Bus: bus}
	b := &Replica{Site: "s", Node: "b", Store: newStore(0), Bus: bus, OnMessage: func(m Message) {
		hookPayloads = append(hookPayloads, m.Payload)
	}}
	a.Attach()
	b.Attach()
	if err := a.Put("k", "v"); err != nil {
		t.Fatal(err)
	}
	if len(hookPayloads) != 1 {
		t.Fatalf("hook called %d times", len(hookPayloads))
	}
	op, key, value, ok := decodeUpdate(hookPayloads[0])
	if !ok || op != "put" || key != "k" || value != "v" {
		t.Errorf("decoded %q %q %q %v", op, key, value, ok)
	}
}

func TestUpdateEncodingRoundTrip(t *testing.T) {
	cases := []struct{ op, key, value string }{
		{"put", "user:1", `{"a": "b c d"}`},
		{"del", "user:2", ""},
		{"put", "key with spaces", "value with  spaces"},
		{"put", "", ""},
	}
	for _, c := range cases {
		op, key, value, ok := decodeUpdate(encodeUpdate(c.op, c.key, c.value))
		if !ok || op != c.op || key != c.key || value != c.value {
			t.Errorf("round trip failed for %+v: got %q %q %q %v", c, op, key, value, ok)
		}
	}
	if _, _, _, ok := decodeUpdate("garbage"); ok {
		t.Error("garbage should not decode")
	}
	if _, _, _, ok := decodeUpdate("put x y z"); ok {
		t.Error("non-numeric lengths should not decode")
	}
}

func TestPropertyUpdateEncoding(t *testing.T) {
	f := func(key, value string) bool {
		op, k, v, ok := decodeUpdate(encodeUpdate("put", key, value))
		return ok && op == "put" && k == key && v == value
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: after any sequence of replicated puts on random replicas, all
// attached replicas converge to identical contents.
func TestPropertyReplicasConverge(t *testing.T) {
	f := func(ops []struct {
		Replica uint8
		Key     uint8
		Value   string
	}) bool {
		bus := NewBus()
		replicas := make([]*Replica, 3)
		for i := range replicas {
			replicas[i] = &Replica{Site: "s", Node: fmt.Sprintf("n%d", i), Store: newStore(0), Bus: bus}
			replicas[i].Attach()
		}
		for _, op := range ops {
			r := replicas[int(op.Replica)%3]
			if err := r.Put(fmt.Sprintf("k%d", op.Key%16), op.Value); err != nil {
				return false
			}
		}
		// Compare every replica's view of every key.
		for k := 0; k < 16; k++ {
			key := fmt.Sprintf("k%d", k)
			v0, ok0 := replicas[0].Get(key)
			for i := 1; i < 3; i++ {
				vi, oki := replicas[i].Get(key)
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
	l := NewAccessLog()
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
	l := NewAccessLog()
	for i := 0; i < 10000; i++ {
		l.Append("site-"+strconv.Itoa(i)+".example", "10.0.0.1 GET / 200 512 1ms")
	}
	if len(l.sites) != 0 {
		t.Fatalf("%d site buffers after appends with no post URL, want 0", len(l.sites))
	}
}

func TestAccessLogRetriesOnFailure(t *testing.T) {
	l := NewAccessLog()
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
	l := NewAccessLog()
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
					_ = s.Put(site, key, "value")
				case 1:
					s.Get(site, key)
				default:
					s.Delete(site, key)
				}
			}
		}(g)
	}
	wg.Wait()
}
