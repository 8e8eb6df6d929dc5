//go:build e2e

package e2e

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"nakika/internal/lease"
	"nakika/internal/store"
)

// The lease scenario: a real 4-process cluster runs the SPECweb edge
// script's lease-guarded job. One node begins the job (taking the
// per-site lease) and streams fenced step writes; it is SIGKILLed
// mid-burst with the lease held. A survivor must be able to begin a new
// holdership — a higher fencing token — and continue, the dead
// holdership's token must be fenced off everywhere afterwards (including
// from the victim itself once it restarts from its data directory), and
// the WALs recovered from every node's data directory must show zero
// interleaved fenced writes: per store, admitted tokens never decrease
// and no token ever belongs to two holderships.

// jobGet drives one /cgi-bin/job request and returns the body.
func jobGet(t *testing.T, c *clusterProcs, node int, query string) string {
	t.Helper()
	status, body, err := proxyGet(c.httpAddr[node], c.originHost, "/cgi-bin/job?"+query)
	if err != nil {
		t.Fatalf("job %s via edge-%d: %v", query, node, err)
	}
	if status != 200 {
		t.Fatalf("job %s via edge-%d: status %d, body %.120q", query, node, status, body)
	}
	return body
}

// beginJob polls op=begin through the node until the lease is granted,
// returning the token. Early requests can race overlay stabilization or a
// still-held lease; the deadline bounds both.
func beginJob(t *testing.T, c *clusterProcs, node int, ttl time.Duration, deadline time.Duration) uint64 {
	t.Helper()
	end := time.Now().Add(deadline)
	var last string
	for time.Now().Before(end) {
		last = jobGet(t, c, node, fmt.Sprintf("op=begin&ttl=%d", ttl.Milliseconds()))
		var token uint64
		if _, err := fmt.Sscanf(last, "token %d", &token); err == nil {
			return token
		}
		time.Sleep(100 * time.Millisecond)
	}
	t.Fatalf("edge-%d never acquired the job lease (last body %q)", node, last)
	return 0
}

func TestLeaseFencingSurvivesSigkillWithCleanWALs(t *testing.T) {
	if testing.Short() {
		t.Skip("real-process e2e suite")
	}
	c := startCluster(t, 4)
	const (
		victim = 0
		heir   = 1
		other  = 2
	)

	// The victim begins the job with a TTL far beyond the test's runtime:
	// the heir's takeover below can only come from the failure detector
	// deposing a crashed holder, never from quiet expiry.
	token1 := beginJob(t, c, victim, 5*time.Minute, 30*time.Second)
	if token1 != 1 {
		t.Fatalf("first holdership token = %d, want 1", token1)
	}

	// The step burst through the holder, SIGKILLed halfway with the lease
	// held and fenced writes still flowing.
	const steps = 20
	for seq := 0; seq < steps; seq++ {
		if seq == steps/2 {
			c.nodes[victim].sigkill(t)
			break
		}
		if body := jobGet(t, c, victim, fmt.Sprintf("op=step&seq=%d&token=%d", seq, token1)); body != fmt.Sprintf("step %d ok", seq) {
			t.Fatalf("holder step %d = %q", seq, body)
		}
		if seq == 0 {
			// The fenced write is placed like a plain write of its key, so
			// State.get through another process reads it at once — long
			// before a maintenance tick (5 s apart) could have repaired a
			// write that landed on some other replica set.
			if body := jobGet(t, c, other, "op=peek"); !strings.Contains(body, `"seq":"0"`) {
				t.Fatalf("job:cursor through edge-%d after the first acknowledged step = %q", other, body)
			}
		}
	}

	// A survivor elects itself heir: the acquire is denied while the
	// record still names the victim, the overlay ping finds it dead, and
	// the grant comes through with the next token — no TTL wait (the TTL
	// is minutes away).
	takeoverStart := time.Now()
	token2 := beginJob(t, c, heir, 5*time.Minute, 60*time.Second)
	if token2 != token1+1 {
		t.Fatalf("heir token = %d, want %d", token2, token1+1)
	}
	if elapsed := time.Since(takeoverStart); elapsed > 30*time.Second {
		t.Fatalf("takeover took %v; the TTL path should never have been needed", elapsed)
	}

	// The heir's steps land; the dead holdership's token is fenced off
	// everywhere, through any node.
	for seq := 100; seq < 100+steps/2; seq++ {
		if body := jobGet(t, c, heir, fmt.Sprintf("op=step&seq=%d&token=%d", seq, token2)); body != fmt.Sprintf("step %d ok", seq) {
			t.Fatalf("heir step %d = %q", seq, body)
		}
	}
	if body := jobGet(t, c, other, fmt.Sprintf("op=step&seq=999&token=%d", token1)); body != "fenced" {
		t.Fatalf("stale-token step via survivor = %q, want fenced", body)
	}

	// The victim restarts from its preserved data directory. Its WAL
	// replays its own holdership's floor, but the cluster has moved on:
	// its buffered-looking retry with the old token must be rejected, and
	// the heir keeps writing.
	c.nodes[victim] = spawn(t, c.dir, fmt.Sprintf("edge-%d-restarted", victim), c.nakikadBin, c.nodeArgs(victim)...)
	waitServing(t, c.httpAddr[victim], c.originHost, 30*time.Second)
	if body := jobGet(t, c, victim, fmt.Sprintf("op=step&seq=1000&token=%d", token1)); body != "fenced" {
		t.Fatalf("restarted victim's stale step = %q, want fenced", body)
	}
	if body := jobGet(t, c, heir, fmt.Sprintf("op=step&seq=200&token=%d", token2)); body != "step 200 ok" {
		t.Fatalf("heir step after victim restart = %q", body)
	}

	// Kill every node (acked fenced writes are already durable) and audit
	// the WALs recovered from the data directories, exactly as a
	// post-mortem would: per store, the admitted (token, holder) sequence
	// for the job's guard must never interleave holderships.
	for i := range c.nodes {
		c.nodes[i].sigkill(t)
	}
	guard := lease.Key("specweb-job")
	tokenHolder := make(map[uint64]string)
	audited, fencedPuts := 0, 0
	for i := range c.nodes {
		fs, err := store.NewDirFS(filepath.Join(c.dir, fmt.Sprintf("data-%d", i), "state"))
		if err != nil {
			t.Fatalf("open data-%d: %v", i, err)
		}
		recs, err := store.DumpWAL(fs)
		if err != nil {
			t.Fatalf("dump WAL of data-%d: %v", i, err)
		}
		audited++
		floor := uint64(0)
		floorHolder := ""
		for _, rec := range recs {
			if rec.Guard != guard {
				continue
			}
			if rec.Op == 'G' {
				fencedPuts++
			}
			if rec.Token < floor {
				t.Fatalf("data-%d WAL: token %d (holder %s) admitted after floor %d (holder %s) — interleaved fenced writes",
					i, rec.Token, rec.Holder, floor, floorHolder)
			}
			if rec.Token == floor && floorHolder != "" && rec.Holder != floorHolder {
				t.Fatalf("data-%d WAL: token %d admitted for both %s and %s — split holdership at one store",
					i, rec.Token, floorHolder, rec.Holder)
			}
			if prev, ok := tokenHolder[rec.Token]; ok && prev != rec.Holder {
				t.Fatalf("token %d granted to both %s and %s across the cluster", rec.Token, prev, rec.Holder)
			}
			tokenHolder[rec.Token] = rec.Holder
			floor, floorHolder = rec.Token, rec.Holder
		}
	}
	// Non-vacuity: the audit must have seen both holderships' fenced
	// writes, or the scenario silently stopped exercising the WAL path.
	if audited != len(c.nodes) || fencedPuts == 0 {
		t.Fatalf("audited %d stores, %d fenced puts; the WAL audit saw no fenced traffic", audited, fencedPuts)
	}
	for _, tok := range []uint64{token1, token2} {
		if _, ok := tokenHolder[tok]; !ok {
			t.Fatalf("no WAL records admitted under token %d; holderships seen: %v", tok, tokenHolder)
		}
	}
	if tokenHolder[token1] == tokenHolder[token2] {
		t.Fatalf("both tokens belong to %s; the handover never changed holders", tokenHolder[token1])
	}
}
