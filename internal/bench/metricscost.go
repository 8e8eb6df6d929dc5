package bench

import (
	"fmt"
	"strings"

	"nakika/internal/core"
)

// The metrics experiment: what the observability plane costs on the hot
// path. The warm single-node proxy loop — the same loop the throughput
// experiment gates — runs twice, once with the plane enabled (the
// default: trace ids minted, the latency histogram observed, one sample
// recorded into the trace ring per request) and once with
// Config.NoObserve (no registry, no ring, no ids — the node behaves like
// a build without the plane). The delta is the plane's whole price.
//
// Alloc counts are deterministic for a fixed Go toolchain, so both
// sides' allocs/op and bytes/op are gated hard by the regression gate.
// What the plane costs in time is benchmark/'s
// observe.handle_delta_ns_per_req.

// MetricsCostResult is the experiment payload written to
// BENCH_metrics.json.
type MetricsCostResult struct {
	// Enabled is the warm proxy loop with the observability plane on —
	// the configuration every production node runs.
	Enabled ProxyAllocs `json:"enabled"`
	// Disabled is the same loop under Config.NoObserve.
	Disabled ProxyAllocs `json:"disabled"`

	// AllocsPerOpAdded and BytesPerOpAdded are the plane's per-request
	// price (enabled minus disabled).
	AllocsPerOpAdded float64 `json:"allocs_per_op_added"`
	BytesPerOpAdded  float64 `json:"bytes_per_op_added"`
}

// observeBenchNode builds the warm proxy node the metrics experiment
// hammers, with the observability plane switched by noObserve.
func observeBenchNode(noObserve bool) (*core.Node, error) {
	node, err := core.NewNode(core.Config{
		Name:          "metrics-bench",
		Region:        "local",
		Upstream:      microOrigin(ConfigProxy),
		ClientWallURL: "http://nakika.net/clientwall.js",
		ServerWallURL: "http://nakika.net/serverwall.js",
		NoObserve:     noObserve,
	})
	if err != nil {
		return nil, err
	}
	return node, warmNode(node)
}

// RunMetricsCost measures the warm proxy loop with the observability
// plane on and off.
func RunMetricsCost() (MetricsCostResult, error) {
	var res MetricsCostResult
	for _, side := range []struct {
		noObserve bool
		out       *ProxyAllocs
	}{
		{false, &res.Enabled},
		{true, &res.Disabled},
	} {
		node, err := observeBenchNode(side.noObserve)
		if err != nil {
			return res, err
		}
		if *side.out, err = measureProxyAllocs(node); err != nil {
			return res, err
		}
	}
	res.AllocsPerOpAdded = res.Enabled.AllocsPerOp - res.Disabled.AllocsPerOp
	res.BytesPerOpAdded = res.Enabled.BytesPerOp - res.Disabled.BytesPerOp
	return res, nil
}

// FormatMetricsCost renders the experiment for the console.
func FormatMetricsCost(r MetricsCostResult) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "warm proxy loop, observability plane on vs off:\n")
	fmt.Fprintf(&sb, "  enabled:  %6.1f allocs/op  %8.1f B/op\n", r.Enabled.AllocsPerOp, r.Enabled.BytesPerOp)
	fmt.Fprintf(&sb, "  disabled: %6.1f allocs/op  %8.1f B/op\n", r.Disabled.AllocsPerOp, r.Disabled.BytesPerOp)
	fmt.Fprintf(&sb, "  plane cost: %+.1f allocs/op  %+.1f B/op\n", r.AllocsPerOpAdded, r.BytesPerOpAdded)
	return sb.String()
}
