package core

import (
	"fmt"
	"reflect"
	"testing"

	"nakika/internal/state"
)

// TestSyncRangeExchangesWhatDiffers: a range sync between two nodes that
// hold 40 equal records and differ in at most one leaves both holding the
// last-writer-wins winner of that one, in whichever direction it had to
// travel, and a converged range costs one exchange.
func TestSyncRangeExchangesWhatDiffers(t *testing.T) {
	const site = "sync.example.org"
	rec := func(ver uint64, deleted bool) *state.Rec {
		r := state.Rec{Site: site, Key: "k", Ver: ver, Origin: "edge-9", Delete: deleted}
		if !deleted {
			r.Value = fmt.Sprintf("v%d", ver)
		}
		return &r
	}
	rows := []struct {
		name        string
		local, peer *state.Rec
		sent        []string // the rep messages the requester sends
	}{
		{"converged", rec(1, false), rec(1, false), []string{"edge-1 rep.sync"}},
		{"peer newer", rec(1, false), rec(2, false), []string{"edge-1 rep.sync"}},
		{"local newer", rec(2, false), rec(1, false), []string{"edge-1 rep.sync", "edge-1 rep.store"}},
		{"peer tombstone at the same version", rec(1, false), rec(1, true), []string{"edge-1 rep.sync"}},
		{"local tombstone at the same version", rec(1, true), rec(1, false), []string{"edge-1 rep.sync", "edge-1 rep.store"}},
		{"only at peer", nil, rec(3, false), []string{"edge-1 rep.sync"}},
		{"only local", rec(3, true), nil, []string{"edge-1 rep.sync", "edge-1 rep.store"}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			nodes, _, log := routeRing(t, 2, nil, nil)
			local, peer := nodes[0], nodes[1]
			for i := 0; i < 40; i++ {
				r := state.Rec{Site: site, Key: fmt.Sprintf("fill-%02d", i), Ver: 1, Origin: "edge-0", Value: "same"}
				for _, n := range nodes {
					if _, err := n.applyPush(r, nil); err != nil {
						t.Fatal(err)
					}
				}
			}
			want := row.local
			if want == nil || row.peer != nil && row.peer.Supersedes(*want) {
				want = row.peer
			}
			for _, side := range []struct {
				n   *Node
				rec *state.Rec
			}{{local, row.local}, {peer, row.peer}} {
				if side.rec != nil {
					if _, err := side.n.applyPush(*side.rec, nil); err != nil {
						t.Fatal(err)
					}
				}
			}
			log.take()
			if _, err := local.syncRange(0, 0, peer.Name()); err != nil {
				t.Fatal(err)
			}
			if sent := log.take(); !reflect.DeepEqual(sent, row.sent) {
				t.Errorf("sent %v, want %v", sent, row.sent)
			}
			for _, n := range nodes {
				ver, origin, deleted, value, ok := n.store.GetVersioned(site, "k")
				got := state.Rec{Site: site, Key: "k", Ver: ver, Origin: origin, Delete: deleted, Value: value}
				if !ok || got != *want {
					t.Errorf("%s holds %v (ok=%v), want %v", n.Name(), got, ok, *want)
				}
			}
		})
	}
}
