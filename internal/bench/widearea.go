package bench

import (
	"fmt"
	"math/rand"
	"time"

	"nakika/internal/simnet"
)

// ---------------------------------------------------------------------------
// E5 / E6: SIMM wide-area experiment (Figure 7)
// ---------------------------------------------------------------------------

// SIMMMode selects the deployment being simulated.
type SIMMMode string

// The three Figure 7 configurations.
const (
	SIMMSingleServer SIMMMode = "single-server"
	SIMMColdCache    SIMMMode = "nakika-cold"
	SIMMWarmCache    SIMMMode = "nakika-warm"
)

// SIMMResult summarizes one Figure 7 curve.
type SIMMResult struct {
	Mode       SIMMMode
	Clients    int
	HTML90th   time.Duration
	HTMLMean   time.Duration
	VideoOKPct float64 // fraction of media accesses at >= 140 Kbps
	Completed  int
	CDF        []simnet.CDFPoint
}

// SIMMParams shapes the wide-area simulation.
type SIMMParams struct {
	Clients       int
	Duration      time.Duration
	Seed          int64
	OriginServers int // origin worker pool; zero means 8
	ProxyServers  int // per-proxy worker pool; zero means 16
	Proxies       int // number of edge proxies; zero means 12
}

func (p SIMMParams) defaults() SIMMParams {
	if p.Clients <= 0 {
		p.Clients = 120
	}
	if p.Duration <= 0 {
		p.Duration = 60 * time.Second
	}
	if p.OriginServers <= 0 {
		p.OriginServers = 8
	}
	if p.ProxyServers <= 0 {
		p.ProxyServers = 16
	}
	if p.Proxies <= 0 {
		p.Proxies = 12
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
	return p
}

// Per-request service times of the model's stations. They are fixed, not
// measured on the host, so that a run is a function of seed and duration
// alone; against 40 ms links and an uplink that takes 65 ms to serialise one
// media file, what the host would measure moves no printed digit. The real
// edge render cost is benchmark/'s simm_render workload
// (script.handler_us_per_req, node_cpu_us_per_req).
const (
	simmOriginRender = 3 * time.Millisecond   // origin-side personalization + XML→HTML rendering
	simmEdgeRender   = 4 * time.Millisecond   // the same rendering by the site script at the edge
	simmStaticServe  = 500 * time.Microsecond // serving a media file from a cache
)

// wan is the wide-area link between client regions and the origin
// (PlanetLab-node-in-New-York stand-in): 40 ms one way, plus a per-project
// bandwidth cap comparable to PlanetLab's limits.
var wan = simnet.Link{Latency: 40 * time.Millisecond, Bandwidth: 1_000_000} // ~8 Mbps

// lan is the client-to-nearby-proxy link.
var lan = simnet.Link{Latency: 5 * time.Millisecond, Bandwidth: 12_500_000} // ~100 Mbps

const mediaBytes = 64 << 10
const htmlBytes = 4 << 10

// RunSIMM runs one Figure 7 configuration.
func RunSIMM(mode SIMMMode, params SIMMParams) SIMMResult {
	params = params.defaults()
	sim := simnet.New(params.Seed)

	origin := sim.Station("origin", params.OriginServers)
	// The origin's uplink is the shared bottleneck the paper's single-server
	// configuration runs into (PlanetLab's per-project bandwidth limit):
	// every byte leaving the origin is serialized through it.
	uplink := sim.Station("origin-uplink", 1)
	serialize := func(bytes int) time.Duration {
		return time.Duration(float64(bytes) / wan.Bandwidth * float64(time.Second))
	}
	proxies := make([]*simnet.Station, params.Proxies)
	for i := range proxies {
		proxies[i] = sim.Station(fmt.Sprintf("proxy-%d", i), params.ProxyServers)
	}

	// Cold-cache warm-up: each proxy tracks which objects it has cached.
	type cacheKey struct {
		proxy int
		obj   int
	}
	cached := make(map[cacheKey]bool)

	// The access log replayed by each client is 60% HTML, 40% media, matching
	// the generated log mix.
	sim.TagFn = func(client, iteration int) (string, int) {
		// Deterministic per (client, iteration) tag consistent with the
		// route: recomputed with the same hash below.
		if (client*7919+iteration*104729)%10 < 4 {
			return "video", mediaBytes
		}
		return "html", htmlBytes
	}

	route := func(client, iteration int, now time.Duration, rng *rand.Rand) []simnet.Visit {
		media := (client*7919+iteration*104729)%10 < 4
		obj := (client*31 + iteration*17) % 200 // working set of 200 objects
		switch mode {
		case SIMMSingleServer:
			size := htmlBytes
			svc := simmOriginRender
			if media {
				size = mediaBytes
				svc = simmStaticServe
			}
			return []simnet.Visit{
				{Delay: wan.TransferTime(300), Station: origin, Service: svc},
				{Station: uplink, Service: serialize(size)},
				{Delay: wan.Latency},
			}
		default:
			proxyIdx := client % params.Proxies
			proxy := proxies[proxyIdx]
			size := htmlBytes
			svc := simmEdgeRender
			if media {
				size = mediaBytes
				svc = simmStaticServe
			}
			// HTML rendering always needs the personalized XML from the
			// origin (the paper keeps personalization central), but media is
			// served from the edge cache once warm; with a cold cache the
			// first access per (proxy, object) goes to the origin.
			key := cacheKey{proxy: proxyIdx, obj: obj}
			hit := mode == SIMMWarmCache || cached[key]
			if media {
				if hit {
					return []simnet.Visit{
						{Delay: lan.TransferTime(300), Station: proxy, Service: svc},
						{Delay: lan.TransferTime(size)},
					}
				}
				cached[key] = true
				return []simnet.Visit{
					{Delay: lan.TransferTime(300), Station: proxy, Service: svc},
					{Delay: wan.TransferTime(300), Station: origin, Service: simmStaticServe},
					{Station: uplink, Service: serialize(size)},
					{Delay: wan.Latency},
					{Delay: lan.TransferTime(size)},
				}
			}
			// HTML: edge renders, fetching the (small) personalized XML from
			// the origin across the WAN; the XML is small so the uplink cost
			// is modest but still shared.
			return []simnet.Visit{
				{Delay: lan.TransferTime(300), Station: proxy, Service: svc},
				{Delay: wan.TransferTime(300), Station: origin, Service: simmOriginRender / 2},
				{Station: uplink, Service: serialize(2 << 10)},
				{Delay: wan.Latency},
				{Delay: lan.TransferTime(size)},
			}
		}
	}

	// Log replay accelerated 4x: think time between requests is short.
	sim.SetClients(params.Clients, 250*time.Millisecond, route)
	results := sim.Run(params.Duration)

	htmlLat := simnet.Latencies(results, "html")
	res := SIMMResult{
		Mode:       mode,
		Clients:    params.Clients,
		HTML90th:   simnet.Percentile(htmlLat, 90),
		HTMLMean:   simnet.Mean(htmlLat),
		VideoOKPct: simnet.FractionAbove(results, "video", 140_000/8) * 100,
		Completed:  len(results),
		CDF:        simnet.CDF(htmlLat, 20),
	}
	return res
}

// RunFigure7 runs the full Figure 7 sweep: 120/180/240 clients for each of
// the three configurations.
func RunFigure7(duration time.Duration) []SIMMResult {
	var out []SIMMResult
	for _, clients := range []int{120, 180, 240} {
		for _, mode := range []SIMMMode{SIMMSingleServer, SIMMColdCache, SIMMWarmCache} {
			out = append(out, RunSIMM(mode, SIMMParams{Clients: clients, Duration: duration}))
		}
	}
	return out
}
