package cache

import (
	"testing"
	"time"

	"nakika/internal/store"
)

// TestKeysSharingAHash forces two keys, a and b, onto one hash in both tiers.
// The later stored supersedes the earlier in each: the later is served and a
// read of the earlier is a miss that never returns the other key's bytes,
// before and after the disk tier is reopened. A demotion writes the key it
// was stored under.
func TestKeysSharingAHash(t *testing.T) {
	seeded := hashKey
	defer func() { hashKey = seeded }()
	hashKey = func(key string) uint64 {
		if key == "a" || key == "b" {
			return 42
		}
		return seeded(key)
	}
	now := time.Unix(1792238400, 0)
	clock := func() time.Time { return now }
	expires := now.Add(time.Hour)
	wantBody := func(what string, got []byte, ok bool, want string) {
		t.Helper()
		if want == "" && ok {
			t.Errorf("%s: served %q, want a miss", what, got)
		} else if want != "" && (!ok || string(got) != want) {
			t.Errorf("%s: served %q (%v), want %q", what, got, ok, want)
		}
	}
	diskGet := func(d *Disk, key string) ([]byte, bool) {
		resp, _, ok := d.Get(key)
		if !ok {
			return nil, false
		}
		return resp.Body, true
	}

	fs := store.NewMemFS()
	d := openDisk(t, fs, 0, clock)
	d.Put("a", page("page a"), expires)
	d.Put("b", page("page b"), expires)
	for _, d := range []*Disk{d, openDisk(t, fs, 0, clock)} {
		got, ok := diskGet(d, "b")
		wantBody("disk b", got, ok, "page b")
		got, ok = diskGet(d, "a")
		wantBody("disk a", got, ok, "")
		if st := d.Stats(); st.Hits != 1 || st.Misses != 1 {
			t.Errorf("disk stats %+v: want a hit of b and a miss of a", st)
		}
	}

	c := New(Config{Clock: clock})
	c.Put("b", page("page b"))
	c.Put("a", page("page a"))
	if got := c.Get("b"); got != nil {
		t.Errorf("memory b: served %q, want a miss", got.Body)
	}
	if got := c.Get("a"); got == nil || string(got.Body) != "page a" || c.Len() != 1 {
		t.Errorf("memory a: %v, %d entries", got, c.Len())
	}
	c.Invalidate("b")
	if got := c.Get("a"); got == nil {
		t.Error("invalidating b dropped a")
	}

	d = openDisk(t, store.NewMemFS(), 0, clock)
	c = New(Config{MaxEntries: 1, Clock: clock, L2: d})
	c.Put("a", page("page a"))
	c.Put("x", page("page x")) // evicts a, which demotes under its own key
	got, ok := diskGet(d, "a")
	wantBody("demoted a", got, ok, "page a")
	got, ok = diskGet(d, "b")
	wantBody("b after a's demotion", got, ok, "")
	if got := c.Get("b"); got != nil {
		t.Errorf("b promoted a's record: %q", got.Body)
	}
}
