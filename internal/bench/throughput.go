package bench

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	"nakika/internal/core"
	"nakika/internal/state"
)

// The throughput experiment: what the data plane allocates per operation,
// measured two ways below the layer the simulated transport replaces:
//
//   - codec: a state.Rec round trip through the binary wire codec,
//   - proxy: the single-node warm proxy loop — the steady state a Na Kika
//     edge server spends its life in.
//
// Alloc counts are deterministic for a given Go toolchain, so they are
// tier-1 ceilings: internal/state's TestRecCodecAllocBudget for the codec,
// TestWarmProxyHitAllocBudget for the proxy loop. How fast either runs
// is benchmark/'s to say (core.handle_ns_per_req, req_per_s and p50_us on
// static_hot; transport.rpc_rtt_us for the mux).

// CodecCost is the per-round-trip cost of one encode+decode pair.
type CodecCost struct {
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
}

// ProxyAllocs is the warm single-node proxy loop's allocation cost.
type ProxyAllocs struct {
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
}

// ThroughputResult is the experiment's payload, written to
// BENCH_throughput.json.
type ThroughputResult struct {
	CodecBinary CodecCost   `json:"codec_binary"`
	Proxy       ProxyAllocs `json:"proxy"`
}

// benchRec is the representative payload every throughput phase ships: a
// user-registration record the size the match service writes.
var benchRec = state.Rec{
	Site:   "match.example.org",
	Key:    "user:arthur",
	Ver:    7,
	Origin: "edge-3",
	Value:  `{"name":"Arthur","quality":"novice","region":"nyc"}`,
}

// RunThroughput runs both phases.
func RunThroughput() (ThroughputResult, error) {
	var res ThroughputResult
	res.CodecBinary = measureCodec(func() {
		rec, err := state.DecodeRec(state.EncodeRec(benchRec))
		if err != nil || rec.Key != benchRec.Key {
			panic(fmt.Sprintf("bench: binary rec round trip: %v", err))
		}
	})
	node, err := NewConcurrentNode(ConfigProxy)
	if err != nil {
		return res, err
	}
	res.Proxy, err = measureProxyAllocs(node)
	return res, err
}

// measureCodec times one round-trip function under the testing package's
// benchmark driver, which self-calibrates the iteration count and reports
// allocs per operation exactly.
func measureCodec(fn func()) CodecCost {
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			fn()
		}
	})
	return CodecCost{
		NsPerOp:     float64(r.NsPerOp()),
		AllocsPerOp: float64(r.AllocsPerOp()),
		BytesPerOp:  float64(r.AllocedBytesPerOp()),
	}
}

// proxyAllocOps is the fixed iteration count of the allocation-counting
// pass; fixed so allocs/op is reproducible independent of runner speed.
const proxyAllocOps = 5_000

// measureProxyAllocs counts allocs/op and bytes/op of the warm proxy loop
// against an already-warmed node, over fixed-count passes bracketed by
// ReadMemStats (which counts every allocation, including the amortized pool
// refills a sampling profiler might miss). Shared between the throughput
// experiment and the metrics-cost experiment (which runs it twice, with the
// observability plane on and off).
func measureProxyAllocs(node *core.Node) (ProxyAllocs, error) {
	oneOp := func() error {
		req := ConcurrentRequest()
		resp, trace, err := node.Handle(req)
		if err != nil {
			return err
		}
		if resp.Status != 200 {
			return fmt.Errorf("bench: warm proxy status %d", resp.Status)
		}
		if trace != nil && !trace.RanHandlers() {
			req.Release()
		}
		return nil
	}
	// Warm the request and frame pools past their cold start.
	for i := 0; i < 512; i++ {
		if err := oneOp(); err != nil {
			return ProxyAllocs{}, err
		}
	}

	// The counting passes run with GC held off (a mid-pass collection
	// drains the request/frame sync.Pools and charges their refill to the
	// window), and the pass runs twice with the minimum taken: amortized
	// one-shot events — a long-lived buffer's append-doubling, a map
	// resize — land in at most one of two back-to-back fixed-count windows
	// (the next doubling is exponentially far away), so the minimum is
	// the steady-state per-op cost, deterministic per toolchain.
	runtime.GC()
	gcPercent := debug.SetGCPercent(-1)
	defer debug.SetGCPercent(gcPercent)
	var out ProxyAllocs
	for pass := 0; pass < 2; pass++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < proxyAllocOps; i++ {
			if err := oneOp(); err != nil {
				return ProxyAllocs{}, err
			}
		}
		runtime.ReadMemStats(&after)
		allocs := float64(after.Mallocs-before.Mallocs) / proxyAllocOps
		bytes := float64(after.TotalAlloc-before.TotalAlloc) / proxyAllocOps
		if pass == 0 || allocs < out.AllocsPerOp {
			out.AllocsPerOp = allocs
		}
		if pass == 0 || bytes < out.BytesPerOp {
			out.BytesPerOp = bytes
		}
	}
	return out, nil
}

// FormatThroughput renders the experiment for the console.
func FormatThroughput(r ThroughputResult) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "codec round trip (state.Rec):\n")
	fmt.Fprintf(&sb, "  binary:   %8.0f ns/op  %6.1f allocs/op  %8.1f B/op\n",
		r.CodecBinary.NsPerOp, r.CodecBinary.AllocsPerOp, r.CodecBinary.BytesPerOp)
	fmt.Fprintf(&sb, "warm proxy loop:\n")
	fmt.Fprintf(&sb, "  %6.1f allocs/op  %8.1f B/op\n", r.Proxy.AllocsPerOp, r.Proxy.BytesPerOp)
	return sb.String()
}
