package simnet

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

// throughput returns completed jobs per second over the run duration.
func throughput(results []JobResult, duration time.Duration) float64 {
	return float64(len(results)) / duration.Seconds()
}

func TestLinkTransferTime(t *testing.T) {
	l := Link{Latency: 40 * time.Millisecond, Bandwidth: 1_000_000} // 1 MB/s
	if got := l.TransferTime(0); got != 40*time.Millisecond {
		t.Errorf("zero bytes: %v", got)
	}
	if got := l.TransferTime(1_000_000); got != 40*time.Millisecond+time.Second {
		t.Errorf("1 MB: %v", got)
	}
	unlimited := Link{Latency: 10 * time.Millisecond}
	if got := unlimited.TransferTime(1 << 30); got != 10*time.Millisecond {
		t.Errorf("unlimited bandwidth: %v", got)
	}
}

func TestSingleStationLittleLaw(t *testing.T) {
	// One station, one server, service time 10 ms, one client, no think
	// time: throughput should approach 100 jobs/s and latency ~10 ms.
	sim := New(1)
	st := sim.Station("server", 1)
	sim.SetClients(1, 0, func(client, iter int, now time.Duration, rng *rand.Rand) []Visit {
		return []Visit{{Station: st, Service: 10 * time.Millisecond}}
	})
	results := sim.Run(10 * time.Second)
	tput := throughput(results, 10*time.Second)
	if tput < 90 || tput > 105 {
		t.Errorf("throughput = %.1f jobs/s, want ~100", tput)
	}
	mean := Mean(Latencies(results, ""))
	if mean < 9*time.Millisecond || mean > 11*time.Millisecond {
		t.Errorf("mean latency = %v, want ~10ms", mean)
	}
}

func TestQueueingUnderOverload(t *testing.T) {
	// 20 clients, single server, 10 ms service: the server saturates at 100
	// jobs/s and latency grows to roughly clients * service time.
	sim := New(2)
	st := sim.Station("server", 1)
	sim.SetClients(20, 0, func(client, iter int, now time.Duration, rng *rand.Rand) []Visit {
		return []Visit{{Station: st, Service: 10 * time.Millisecond}}
	})
	results := sim.Run(10 * time.Second)
	tput := throughput(results, 10*time.Second)
	if tput > 105 {
		t.Errorf("throughput %.1f exceeds single-server capacity", tput)
	}
	mean := Mean(Latencies(results, ""))
	if mean < 150*time.Millisecond {
		t.Errorf("mean latency %v too low for a 20-client overload", mean)
	}
}

func TestMoreServersMoreThroughput(t *testing.T) {
	run := func(servers int) float64 {
		sim := New(3)
		st := sim.Station("server", servers)
		sim.SetClients(16, 0, func(client, iter int, now time.Duration, rng *rand.Rand) []Visit {
			return []Visit{{Station: st, Service: 10 * time.Millisecond}}
		})
		return throughput(sim.Run(5*time.Second), 5*time.Second)
	}
	one, four := run(1), run(4)
	if four < 2.5*one {
		t.Errorf("4 servers should give ~4x throughput of 1: %v vs %v", four, one)
	}
}

func TestNetworkDelayAddsLatency(t *testing.T) {
	link := Link{Latency: 80 * time.Millisecond, Bandwidth: 1_000_000} // 8 Mbps
	run := func(withWAN bool) time.Duration {
		sim := New(4)
		st := sim.Station("origin", 8)
		sim.SetClients(4, 10*time.Millisecond, func(client, iter int, now time.Duration, rng *rand.Rand) []Visit {
			delay := time.Duration(0)
			back := time.Duration(0)
			if withWAN {
				delay = link.TransferTime(200)   // request upstream
				back = link.TransferTime(20_000) // response downstream
			}
			return []Visit{
				{Delay: delay, Station: st, Service: 2 * time.Millisecond},
				{Delay: back},
			}
		})
		return Mean(Latencies(sim.Run(5*time.Second), ""))
	}
	local, wan := run(false), run(true)
	if wan < local+100*time.Millisecond {
		t.Errorf("WAN latency should add at least the RTT: local=%v wan=%v", local, wan)
	}
}

func TestTagsAndFractionAbove(t *testing.T) {
	sim := New(5)
	st := sim.Station("server", 4)
	sim.TagFn = func(client, iteration int) (string, int) {
		if client%2 == 0 {
			return "video", 1_000_000
		}
		return "html", 10_000
	}
	sim.SetClients(4, time.Millisecond, func(client, iter int, now time.Duration, rng *rand.Rand) []Visit {
		return []Visit{{Station: st, Service: 5 * time.Millisecond}}
	})
	results := sim.Run(time.Second)
	if len(Latencies(results, "video")) == 0 || len(Latencies(results, "html")) == 0 {
		t.Fatal("expected both tags to appear")
	}
	// Video jobs deliver 1 MB in ~5 ms: far above a 17.5 KB/s (140 Kbps)
	// threshold.
	if f := FractionAbove(results, "video", 17_500); f < 0.99 {
		t.Errorf("video fraction above threshold = %.2f", f)
	}
}

func TestPercentileAndCDF(t *testing.T) {
	lat := []time.Duration{1 * time.Second, 2 * time.Second, 3 * time.Second, 4 * time.Second, 5 * time.Second}
	if p := Percentile(lat, 50); p != 3*time.Second {
		t.Errorf("p50 = %v", p)
	}
	if p := Percentile(lat, 100); p != 5*time.Second {
		t.Errorf("p100 = %v", p)
	}
	if p := Percentile(nil, 90); p != 0 {
		t.Errorf("empty percentile = %v", p)
	}
	cdf := CDF(lat, 5)
	if len(cdf) != 5 {
		t.Fatalf("cdf points = %d", len(cdf))
	}
	if cdf[4].Fraction != 1.0 || cdf[4].Latency != 5*time.Second {
		t.Errorf("last cdf point = %+v", cdf[4])
	}
	for i := 1; i < len(cdf); i++ {
		if cdf[i].Latency < cdf[i-1].Latency {
			t.Error("CDF latencies must be non-decreasing")
		}
	}
	if CDF(nil, 5) != nil {
		t.Error("empty CDF should be nil")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []JobResult {
		sim := New(42)
		st := sim.Station("s", 2)
		sim.SetClients(5, 3*time.Millisecond, func(client, iter int, now time.Duration, rng *rand.Rand) []Visit {
			svc := time.Duration(1+rng.Intn(5)) * time.Millisecond
			return []Visit{{Station: st, Service: svc}}
		})
		return sim.Run(500 * time.Millisecond)
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("runs differ in length: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Latency != b[i].Latency || a[i].Client != b[i].Client {
			t.Fatalf("run not deterministic at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// Property: every completed job has non-negative latency no smaller than the
// sum of its fixed delays would allow, and throughput is non-negative.
func TestPropertyLatenciesNonNegative(t *testing.T) {
	f := func(seed int64, clients uint8) bool {
		sim := New(seed)
		st := sim.Station("s", 2)
		n := int(clients%16) + 1
		sim.SetClients(n, time.Millisecond, func(client, iter int, now time.Duration, rng *rand.Rand) []Visit {
			return []Visit{{Delay: 2 * time.Millisecond, Station: st, Service: time.Millisecond}}
		})
		results := sim.Run(200 * time.Millisecond)
		for _, r := range results {
			if r.Latency < 3*time.Millisecond {
				return false
			}
		}
		return throughput(results, 200*time.Millisecond) >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
