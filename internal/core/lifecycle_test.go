package core

import (
	"reflect"
	"strings"
	"testing"

	"nakika/internal/httpmsg"
	"nakika/internal/store"
)

// TestNodeLifecycle is the storage contract, once over both modes: a node
// with a data directory and one without run the same engines, so a restart
// brings back exactly the acknowledged state — hard state, large objects and
// (with a data directory only) the disk cache tier — or, without a data
// directory, nothing at all. A write the dead incarnation still tries never
// reaches the data directory.
func TestNodeLifecycle(t *testing.T) {
	const (
		site  = "site.example.org"
		page  = "http://site.example.org/page"
		other = "http://site.example.org/other"
		blob  = "http://site.example.org/blob"
	)
	for _, row := range []struct {
		name string
		fs   *store.MemFS
	}{
		{"no data directory", nil},
		{"MemFS data directory", store.NewMemFS()},
	} {
		t.Run(row.name, func(t *testing.T) {
			persist := row.fs != nil
			origin := newMemOrigin()
			origin.addText(page, "<html>page</html>", 600)
			origin.addText(other, "<html>other</html>", 600)
			origin.addText(blob, strings.Repeat("a large object ", 2000), 600)
			n := newTestNode(t, "edge-1", origin, func(cfg *Config) {
				lobConfig(4096, 10_000)(cfg)
				if persist {
					cfg.DataFS = row.fs.View()
				}
				cfg.Cache.MaxEntries = 1 // other evicts page: a demotion with a data directory
			})
			get := func(url string) *httpmsg.Response {
				t.Helper()
				resp, _, err := n.Handle(httpmsg.MustRequest("GET", url))
				if err != nil || resp.Status != 200 {
					t.Fatalf("GET %s: %v, %v", url, resp, err)
				}
				if resp.Stream != nil {
					if err := resp.Materialize(); err != nil {
						t.Fatal(err)
					}
				}
				return resp
			}
			for _, kv := range [][2]string{{"k1", "v1"}, {"k2", "v2"}, {"k1", "v1b"}} {
				if err := n.StatePut(site, kv[0], kv[1]); err != nil {
					t.Fatal(err)
				}
			}
			get(page)
			get(other)
			get(blob)
			if got := n.LargeObject().Tier.Manifests; got != 1 {
				t.Fatalf("manifests before the crash = %d, want 1", got)
			}
			if demoted := n.Cache().Stats().Demotions; persist != (demoted > 0) {
				t.Fatalf("demotions before the crash = %d with a data directory %v", demoted, persist)
			}
			acked := n.StoreStats().Appends

			dead := n
			n = restart(t, n, row.fs)
			if err := dead.StatePut(site, "k3", "after the crash"); persist && err == nil {
				t.Fatal("the dead incarnation wrote to the data directory")
			}

			if _, ok := n.StateGet(site, "k3"); ok {
				t.Error("the dead incarnation's write was stored")
			}
			if !persist {
				if v, ok := n.StateGet(site, "k1"); ok {
					t.Errorf("k1 = %q survived a crash without a data directory", v)
				}
				if got := n.LargeObject().Tier.Manifests; got != 0 {
					t.Errorf("manifests after the recovery = %d, want 0", got)
				}
				if got := n.StoreStats().Replayed; got != 0 {
					t.Errorf("replayed %d records from nothing", got)
				}
				return
			}
			if got, want := n.StateKeys(site), []string{"k1", "k2"}; !reflect.DeepEqual(got, want) {
				t.Errorf("keys after the recovery = %v, want %v", got, want)
			}
			if v, _ := n.StateGet(site, "k1"); v != "v1b" {
				t.Errorf("k1 = %q after the recovery, want v1b", v)
			}
			if got := n.StoreStats().Replayed; int64(got) != acked {
				t.Errorf("replayed %d records, want the %d acknowledged", got, acked)
			}
			get(page)
			if resp := get(blob); resp.TotalLen() != int64(2000*len("a large object ")) {
				t.Errorf("recovered object is %d bytes", resp.TotalLen())
			}
			for _, url := range []string{page, blob} {
				if got := origin.hitCount(url); got != 1 {
					t.Errorf("origin fetches of %s = %d, want 1", url, got)
				}
			}
		})
	}
}
