package cluster

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"nakika/internal/apps/specweb"
	"nakika/internal/core"
	"nakika/internal/deploy"
	"nakika/internal/lease"
	"nakika/internal/state"
)

// Every replicated record type takes one path — route to the acting owner
// of the record's own replica key, write there, push to its successors —
// so straight after the acknowledgement every one of them sits on the same
// kind of replica set and reads back through any node, with no repair pass
// in between. A fenced write used to be routed by its lease's key instead
// of its own, which put it on another replica set than the one State.get
// asks; the fenced rows and the checkpoint counter below fail there.

// tombstoneHolders is StateHolders for a deleted record: the live nodes
// whose local store holds its tombstone.
func tombstoneHolders(c *Cluster, site, key string) []string {
	var out []string
	for _, name := range c.Names() {
		if _, _, deleted, ok := c.NodeByName(name).LocalStateRecord(site, key); ok && deleted && c.Live(name) {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

func TestRecordLandsOnItsReplicaSet(t *testing.T) {
	const perRow = 8 // records written per row: one could land right by luck
	rows := []struct {
		name    string
		deleted bool
		// record names the i-th record of the row.
		record func(i int) (site, key string)
		// write performs the acknowledged operation through w.
		write func(t *testing.T, c *Cluster, w *core.Node, site, key string)
		// read checks the record through out, a node outside its replica
		// set (w is the node that wrote it).
		read func(t *testing.T, w, out *core.Node, site, key string)
	}{
		{
			name:   "StatePut",
			record: func(i int) (string, string) { return repSite, fmt.Sprintf("placed-put-%d", i) },
			write: func(t *testing.T, c *Cluster, w *core.Node, site, key string) {
				if err := w.StatePut(site, key, "put"); err != nil {
					t.Fatal(err)
				}
			},
			read: func(t *testing.T, w, out *core.Node, site, key string) {
				if v, ok := out.StateGet(site, key); !ok || v != "put" {
					t.Fatalf("StateGet(%s) through %s = (%q, %v), want put", key, out.Name(), v, ok)
				}
			},
		},
		{
			name:    "StateDelete",
			deleted: true,
			record:  func(i int) (string, string) { return repSite, fmt.Sprintf("placed-del-%d", i) },
			write: func(t *testing.T, c *Cluster, w *core.Node, site, key string) {
				if err := w.StatePut(site, key, "doomed"); err != nil {
					t.Fatal(err)
				}
				if err := w.StateDelete(site, key); err != nil {
					t.Fatal(err)
				}
			},
			read: func(t *testing.T, w, out *core.Node, site, key string) {
				if v, ok := out.StateGet(site, key); ok {
					t.Fatalf("StateGet(%s) through %s = %q after the delete", key, out.Name(), v)
				}
			},
		},
		{
			name:   "FencedStatePut",
			record: func(i int) (string, string) { return repSite, fmt.Sprintf("placed-fenced-%d", i) },
			write: func(t *testing.T, c *Cluster, w *core.Node, site, key string) {
				token, ok := w.LeaseAcquire(site, "placed-writer", time.Hour)
				if !ok {
					t.Fatalf("%s: writer lease denied", w.Name())
				}
				if err := w.FencedStatePut(site, key, "fenced", "placed-writer", token); err != nil {
					t.Fatal(err)
				}
				if !w.LeaseRelease(site, "placed-writer", token) {
					t.Fatalf("%s: writer lease release refused", w.Name())
				}
			},
			read: func(t *testing.T, w, out *core.Node, site, key string) {
				if v, ok := out.StateGet(site, key); !ok || v != "fenced" {
					t.Fatalf("StateGet(%s) through %s = (%q, %v), want fenced", key, out.Name(), v, ok)
				}
			},
		},
		{
			name:   "lease grant",
			record: func(i int) (string, string) { return repSite, lease.Key(fmt.Sprintf("placed-job-%d", i)) },
			write: func(t *testing.T, c *Cluster, w *core.Node, site, key string) {
				name := strings.TrimPrefix(key, lease.KeyPrefix)
				if token, ok := w.LeaseAcquire(site, name, time.Hour); !ok || token != 1 {
					t.Fatalf("acquire %s through %s = (%d, %v), want (1, true)", name, w.Name(), token, ok)
				}
			},
			read: func(t *testing.T, w, out *core.Node, site, key string) {
				// Both nodes sit outside the record's replica set: the
				// holder's renewal and the other's denial are decided on the
				// record the grant left at the owner.
				name := strings.TrimPrefix(key, lease.KeyPrefix)
				if token, ok := out.LeaseAcquire(site, name, time.Hour); ok {
					t.Fatalf("acquire %s through %s granted token %d over a live holder", name, out.Name(), token)
				}
				if !w.LeaseRenew(site, name, 1, time.Hour) {
					t.Fatalf("renew %s through its holder %s refused", name, w.Name())
				}
			},
		},
		{
			name:   "deployment record",
			record: func(i int) (string, string) { return fmt.Sprintf("placed-%d.example.org", i), deploy.StateKey },
			write: func(t *testing.T, c *Cluster, w *core.Node, site, key string) {
				c.DefineBundle("placed", deployBundle("placed"))
				if gen, err := c.Deploy(w.Name(), site, "placed"); err != nil || gen != 1 {
					t.Fatalf("deploy %s through %s = (%d, %v), want generation 1", site, w.Name(), gen, err)
				}
			},
			read: func(t *testing.T, w, out *core.Node, site, key string) {
				// The deploy nudged every peer to read the record and apply it.
				if gen := out.AppliedGeneration(site); gen != 1 {
					t.Fatalf("%s serves generation %d of %s, want 1", out.Name(), gen, site)
				}
			},
		},
	}
	for _, row := range rows {
		row := row
		t.Run(row.name, func(t *testing.T) {
			c := bootReplicated(t, 8, 1+seedOffset(), 3)
			for i := 0; i < perRow; i++ {
				site, key := row.record(i)
				order := ringOrder(c, state.ReplicaKey(site, key))
				want := append([]string(nil), order[:3]...)
				sort.Strings(want)
				w, out := c.NodeByName(order[4]), c.NodeByName(order[3])
				row.write(t, c, w, site, key)
				got := c.StateHolders(site, key)
				if row.deleted {
					got = tombstoneHolders(c, site, key)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s/%q written through %s is held by %v, want its owner and two successors %v", site, key, w.Name(), got, want)
				}
				row.read(t, w, out, site, key)
			}
			if err := c.Err(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestCheckpointCounterCountsAcrossNodes runs the SPECweb port's checkpoint
// sequence (Lease.acquire, State.get of the counter, Lease.put of the
// increment, Lease.release) five times per site from rotating nodes. The
// counter is read where it was written, so it counts to five on every site.
func TestCheckpointCounterCountsAcrossNodes(t *testing.T) {
	const sites, rounds = 32, 5
	origin := NewCountingOrigin()
	host := func(s int) string { return fmt.Sprintf("specweb-%02d.example.org", s) }
	for s := 0; s < sites; s++ {
		origin.AddPage("http://"+host(s)+"/nakika.js", specweb.EdgeScript(host(s)), 3600)
	}
	c, err := New(Config{N: 8, Seed: 1 + seedOffset(), Latency: time.Millisecond, Replication: 3}, origin)
	if err != nil {
		t.Fatal(err)
	}
	c.StabilizeAll(4)
	names := c.Names()
	for s := 0; s < sites; s++ {
		for i := 0; i < rounds; i++ {
			node := names[(s+i)%len(names)]
			resp, err := c.Handle(node, "http://"+host(s)+"/cgi-bin/checkpoint")
			if err != nil {
				t.Fatal(err)
			}
			if got, want := string(resp.Body), fmt.Sprintf("checkpoint %d", i+1); got != want {
				t.Fatalf("%s, round %d through %s: %q, want %q", host(s), i+1, node, got, want)
			}
		}
	}
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
}
