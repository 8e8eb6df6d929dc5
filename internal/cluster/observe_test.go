package cluster

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"nakika/internal/core"
	"nakika/internal/state"
	"nakika/internal/trace"
)

// Observability acceptance on the simulated cluster: the per-node metrics
// registry agrees with the scenario the harness drove, script-level lease
// and hedged-read activity lands on the request's trace sample, and a
// request that crossed nodes (offload, traced RPCs) shares one trace id
// on every side.

// expositionHas asserts the node's rendered /metrics exposition contains
// the exact series line.
func expositionHas(t *testing.T, n *core.Node, line string) {
	t.Helper()
	var sb strings.Builder
	if err := n.Metrics().WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), line) {
		t.Fatalf("exposition missing %q:\n%s", line, sb.String())
	}
}

// leaseSite is the scripted site of the trace-activity scenario.
const leaseSite = "lease-site.example.org"

// leaseScriptOrigin serves a page plus a nakika.js whose onRequest runs a
// lease-held critical section: acquire, one fenced write, and — only when
// the request carries ?release=1 — a release. A request arriving while a
// previous holder still holds the lease is denied.
func leaseScriptOrigin() *CountingOrigin {
	origin := NewCountingOrigin()
	origin.AddPage("http://"+leaseSite+"/page", "lease page body", 3600)
	origin.AddScript("http://"+leaseSite+"/nakika.js", `
		var p = new Policy();
		p.url = [ "`+leaseSite+`" ];
		p.onRequest = function() {
			var token = Lease.acquire("job", 60000);
			if (token != null) {
				Lease.put("cs", "held", "job", token);
				if (Request.query == "release=1") {
					Lease.release("job", token);
				}
			}
		};
		p.register();
	`, 3600)
	return origin
}

// TestScriptLeaseActivityLandsOnTraceSample drives the scripted
// lease-holding site and asserts each request's sample in the trace ring
// records exactly the lease activity its handler performed: the grant
// with its fence token and the fenced write on the first request, the
// denial on the second (the lease is still held), and the release on the
// third once the holder lets go.
func TestScriptLeaseActivityLandsOnTraceSample(t *testing.T) {
	c, err := New(Config{N: 5, Seed: 7, Latency: time.Millisecond}, leaseScriptOrigin())
	if err != nil {
		t.Fatal(err)
	}
	c.StabilizeAll(4)

	bySample := func(node string) *trace.Sample {
		samples := c.NodeByName(node).Traces().Snapshot()
		if len(samples) == 0 {
			t.Fatalf("%s recorded no trace samples", node)
		}
		latest := samples[0]
		for _, s := range samples {
			if s.Start.After(latest.Start) {
				latest = s
			}
		}
		return latest
	}

	// Request 1 (node-0): grant + fenced write, held past the handler.
	if _, err := c.Handle("node-0", "http://"+leaseSite+"/page"); err != nil {
		t.Fatal(err)
	}
	s1 := bySample("node-0")
	if s1.TraceID == 0 {
		t.Fatal("request 1: no trace id minted")
	}
	if s1.LeaseAcquires != 1 || s1.FencedWrites != 1 || s1.FenceToken == 0 {
		t.Fatalf("request 1 sample: acquires=%d fencedWrites=%d token=%d, want 1/1/nonzero",
			s1.LeaseAcquires, s1.FencedWrites, s1.FenceToken)
	}
	if s1.LeaseDenials != 0 || s1.LeaseReleases != 0 {
		t.Fatalf("request 1 sample: denials=%d releases=%d, want 0/0", s1.LeaseDenials, s1.LeaseReleases)
	}

	// Request 2 (node-1): the holder is live, so the acquire is denied and
	// nothing is written.
	if _, err := c.Handle("node-1", "http://"+leaseSite+"/page"); err != nil {
		t.Fatal(err)
	}
	s2 := bySample("node-1")
	if s2.LeaseDenials != 1 || s2.LeaseAcquires != 0 || s2.FencedWrites != 0 {
		t.Fatalf("request 2 sample: denials=%d acquires=%d fencedWrites=%d, want 1/0/0",
			s2.LeaseDenials, s2.LeaseAcquires, s2.FencedWrites)
	}
	if s2.TraceID == s1.TraceID {
		t.Fatal("independent requests share a trace id")
	}

	// Request 1's holder released nothing, so free the lease by releasing
	// through the public surface, then request 3 re-acquires and releases
	// within its handler.
	if ok := c.NodeByName("node-0").LeaseRelease(leaseSite, "job", s1.FenceToken); !ok {
		t.Fatal("manual release of the held lease failed")
	}
	if _, err := c.Handle("node-2", "http://"+leaseSite+"/page?release=1"); err != nil {
		t.Fatal(err)
	}
	s3 := bySample("node-2")
	if s3.LeaseAcquires != 1 || s3.LeaseReleases != 1 || s3.FencedWrites != 1 {
		t.Fatalf("request 3 sample: acquires=%d releases=%d fencedWrites=%d, want 1/1/1",
			s3.LeaseAcquires, s3.LeaseReleases, s3.FencedWrites)
	}

	// The registry on the lease record's acting owner agrees with the
	// arbitration the three requests drove: two grants, one denial.
	owner := c.NodeByName(leaseRecordOwner(c, leaseSite, "job"))
	st := owner.Stats().Lease
	expositionHas(t, owner, fmt.Sprintf("nakika_lease_acquired_total %d", st.Acquired))
	expositionHas(t, owner, fmt.Sprintf("nakika_lease_denied_total %d", st.Denied))
	if st.Acquired != 2 || st.Denied != 1 {
		t.Fatalf("owner arbitration stats = %+v, want 2 acquired / 1 denied", st)
	}
}

// hedgeScriptOrigin serves a page whose onRequest reads one replicated
// hard-state key — the read that hedges once the owner looks slow.
func hedgeScriptOrigin() *CountingOrigin {
	origin := NewCountingOrigin()
	origin.AddPage("http://"+leaseSite+"/page", "hedge page body", 3600)
	origin.AddScript("http://"+leaseSite+"/nakika.js", `
		var p = new Policy();
		p.url = [ "`+leaseSite+`" ];
		p.onRequest = function() { State.get("hot"); };
		p.register();
	`, 3600)
	return origin
}

// TestScriptHedgedReadLandsOnTraceSample drives the scripted State.get
// site through a node that does not own the key, with a hedge budget the
// owner's round trip always exceeds: once the first read trains the RTT
// estimate, subsequent requests' samples must record the hedged read.
func TestScriptHedgedReadLandsOnTraceSample(t *testing.T) {
	c, err := New(Config{N: 5, Seed: 11, Latency: time.Millisecond,
		HedgeAfter: 10 * time.Microsecond}, hedgeScriptOrigin())
	if err != nil {
		t.Fatal(err)
	}
	c.StabilizeAll(4)

	owner := c.Ring.Successor(state.ReplicaKey(leaseSite, "hot")).Name
	ingress := pickNode(c, owner)
	if err := c.NodeByName(owner).StatePut(leaseSite, "hot", "v"); err != nil {
		t.Fatal(err)
	}

	// Drive requests until a sample records a hedged read: the first
	// request's owner round trip (2x 1ms of virtual latency) trains the
	// estimate past the 10µs budget, so the second request must hedge.
	hedged := false
	for i := 0; i < 4 && !hedged; i++ {
		if _, err := c.Handle(ingress, "http://"+leaseSite+"/page"); err != nil {
			t.Fatal(err)
		}
		for _, s := range c.NodeByName(ingress).Traces().Snapshot() {
			if s.HedgedReads > 0 {
				hedged = true
				if s.TraceID == 0 {
					t.Fatal("hedged sample has no trace id")
				}
			}
		}
	}
	if !hedged {
		t.Fatal("no request sample recorded a hedged read despite the slow owner")
	}
	st := c.NodeByName(ingress).Stats().Offload
	if st.HedgedReads == 0 {
		t.Fatal("node hedge counter disagrees with the sample")
	}
	expositionHas(t, c.NodeByName(ingress), fmt.Sprintf("nakika_hedged_reads_total %d", st.HedgedReads))
}
