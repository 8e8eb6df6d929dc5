package bench

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"testing"
	"time"

	"nakika/internal/core"
	"nakika/internal/state"
	"nakika/internal/transport"
)

// The throughput experiment: the data plane's real-clock cost, measured
// three ways. Where every other gated experiment runs on the simulated
// transport's virtual clock, this one deliberately runs on the wall clock
// and real sockets, because the thing under test — the binary RPC codec,
// the multiplexed TCP transport, and the pooled request hot path — only
// exists below the layer the simulator replaces:
//
//   - codec: a state.Rec round trip through the binary wire codec,
//   - rpc: a two-process pair of real TCP transports (the server half is
//     a re-exec of this binary, so the traffic crosses a process
//     boundary) driven concurrently over the multiplexed connection,
//   - proxy: the single-node warm proxy loop — the steady state a Na Kika
//     edge server spends its life in — measuring req/s, allocs/op,
//     bytes/op, and p50/p99 latency.
//
// Alloc counts are deterministic for a given Go toolchain, so the
// regression gate tracks allocs/op and bytes/op hard; req/s and latency
// are runner-dependent and are only soft-checked (a warning, never a CI
// failure — see SoftMetrics).
//
// The gob codec and the one-shot TCP protocol these replaced are gone from
// the tree; what they measured when PR 6 removed them from the data plane
// stays in the JSON as constants (see the pr6 values below), so the file
// still carries both sides of "194→5 allocs" and "1.38×".

// CodecCost is the per-round-trip cost of one encode+decode pair.
type CodecCost struct {
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
}

// WireThroughput is one RPC client configuration's measured throughput
// against the spawned server process.
type WireThroughput struct {
	Requests  int           `json:"requests"`
	ReqPerSec float64       `json:"req_per_sec"`
	P50       time.Duration `json:"p50_ns"`
	P99       time.Duration `json:"p99_ns"`
}

// ProxyThroughput is the warm single-node proxy loop's measured cost.
type ProxyThroughput struct {
	Requests    int           `json:"requests"`
	ReqPerSec   float64       `json:"req_per_sec"`
	AllocsPerOp float64       `json:"allocs_per_op"`
	BytesPerOp  float64       `json:"bytes_per_op"`
	P50         time.Duration `json:"p50_ns"`
	P99         time.Duration `json:"p99_ns"`
}

// ThroughputResult is the full experiment payload written to
// BENCH_throughput.json.
type ThroughputResult struct {
	CodecBinary CodecCost `json:"codec_binary"`
	// CodecGob and CodecAllocDropPct are historical (pr6CodecGob).
	CodecGob          CodecCost `json:"codec_gob"`
	CodecAllocDropPct float64   `json:"codec_alloc_drop_pct"`

	Proxy ProxyThroughput `json:"proxy"`
	// ProxySeedAllocsPerOp is the warm-proxy allocs/op measured at the
	// release before the pooled hot path landed (gob codecs, one-shot
	// connections, per-request staging allocated fresh). It is recorded
	// here so the JSON carries both sides of the ≥50% reduction claim.
	ProxySeedAllocsPerOp float64 `json:"proxy_seed_allocs_per_op"`
	ProxyAllocDropPct    float64 `json:"proxy_alloc_drop_pct"`

	RPCMux WireThroughput `json:"rpc_mux"`
	// RPCOneShot and RPCMuxSpeedup are historical (pr6RPCOneShot).
	RPCOneShot    WireThroughput `json:"rpc_one_shot"`
	RPCMuxSpeedup float64        `json:"rpc_mux_speedup"`
}

// proxySeedAllocsPerOp: measured with the same loop at the last release
// before this one (see ProxySeedAllocsPerOp).
const proxySeedAllocsPerOp = 32

// The PR 6 measurements of the paths that no longer exist, as committed in
// bench/baseline/BENCH_throughput.json: a state.Rec round trip through
// the gob encoder, the same RPC pair over one connection per exchange, and
// the two ratios against the binary codec (5 allocs/op) and the mux
// (54110 req/s) measured in the same run.
var (
	pr6CodecGob   = CodecCost{NsPerOp: 20425, AllocsPerOp: 194, BytesPerOp: 9344}
	pr6RPCOneShot = WireThroughput{Requests: 78282, ReqPerSec: 39138.02973664723, P50: 180287, P99: 618255}
)

const (
	pr6CodecAllocDropPct = 97.42268041237114
	pr6RPCMuxSpeedup     = 1.3825428903493366
)

// benchRec is the representative payload every throughput phase ships: a
// user-registration record the size the match service writes.
var benchRec = state.Rec{
	Site:   "match.example.org",
	Key:    "user:arthur",
	Ver:    7,
	Origin: "edge-3",
	Value:  `{"name":"Arthur","quality":"novice","region":"nyc"}`,
}

// RunThroughput runs all three phases. loadDuration bounds each
// wall-clock measurement loop.
func RunThroughput(loadDuration time.Duration) (ThroughputResult, error) {
	res := ThroughputResult{
		CodecGob:          pr6CodecGob,
		CodecAllocDropPct: pr6CodecAllocDropPct,
		RPCOneShot:        pr6RPCOneShot,
		RPCMuxSpeedup:     pr6RPCMuxSpeedup,
	}

	res.CodecBinary = measureCodec(func() {
		rec, err := state.DecodeRec(state.EncodeRec(benchRec))
		if err != nil || rec.Key != benchRec.Key {
			panic(fmt.Sprintf("bench: binary rec round trip: %v", err))
		}
	})

	proxy, err := runProxyLoop(loadDuration)
	if err != nil {
		return res, err
	}
	res.Proxy = proxy
	res.ProxySeedAllocsPerOp = proxySeedAllocsPerOp
	res.ProxyAllocDropPct = dropPct(proxySeedAllocsPerOp, proxy.AllocsPerOp)

	if res.RPCMux, err = runRPCPair(loadDuration); err != nil {
		return res, fmt.Errorf("bench: rpc pair: %w", err)
	}
	return res, nil
}

func dropPct(base, now float64) float64 {
	if base == 0 {
		return 0
	}
	return (base - now) / base * 100
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
const proxyAllocOps = 20_000

// runProxyLoop measures the warm proxy path: latency and req/s over a
// wall-clock window, then allocs/op and bytes/op over a fixed-count pass
// bracketed by ReadMemStats (which counts every allocation, including the
// amortized pool refills a sampling profiler might miss).
func runProxyLoop(d time.Duration) (ProxyThroughput, error) {
	node, err := NewConcurrentProxyNode()
	if err != nil {
		return ProxyThroughput{}, err
	}
	return measureProxyLoop(node, d)
}

// measureProxyLoop drives the warm proxy loop against an already-warmed
// node. Shared between the throughput experiment and the metrics-cost
// experiment (which runs it twice, with the observability plane on and
// off).
func measureProxyLoop(node *core.Node, d time.Duration) (ProxyThroughput, error) {
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
			return ProxyThroughput{}, err
		}
	}

	var out ProxyThroughput
	lats := make([]time.Duration, 0, 1<<20)
	deadline := time.Now().Add(d)
	start := time.Now()
	for time.Now().Before(deadline) && len(lats) < cap(lats) {
		t0 := time.Now()
		if err := oneOp(); err != nil {
			return ProxyThroughput{}, err
		}
		lats = append(lats, time.Since(t0))
	}
	elapsed := time.Since(start)
	out.Requests = len(lats)
	out.ReqPerSec = float64(len(lats)) / elapsed.Seconds()
	out.P50 = benchPercentile(lats, 0.50)
	out.P99 = benchPercentile(lats, 0.99)

	// The counting passes run with GC held off (a mid-pass collection
	// drains the request/frame sync.Pools and charges their refill to the
	// window), and the pass runs twice with the minimum taken: amortized
	// one-shot events — a long-lived buffer's append-doubling, a map
	// resize — land in at most one of two back-to-back 20k-op windows
	// (the next doubling is exponentially far away), so the minimum is
	// the steady-state per-op cost, deterministic per toolchain.
	runtime.GC()
	gcPercent := debug.SetGCPercent(-1)
	defer debug.SetGCPercent(gcPercent)
	for pass := 0; pass < 2; pass++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < proxyAllocOps; i++ {
			if err := oneOp(); err != nil {
				return ProxyThroughput{}, err
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

// ---------------------------------------------------------------------------
// The two-process RPC pair
// ---------------------------------------------------------------------------

// RPCPeerEnv flips a nakika-bench process into the server half of the RPC
// phase (set by the parent on the re-exec'd child, never by hand).
const RPCPeerEnv = "NAKIKA_BENCH_RPC_PEER"

// rpcPeerAddrPrefix tags the one line the server half prints: its bound
// address, which the parent scrapes from the child's stdout.
const rpcPeerAddrPrefix = "RPC_PEER_ADDR "

// ServeRPCPeer is the server half: a real TCP transport on a loopback
// port with an echo handler that decodes each request's record and
// re-encodes it into the reply — one representative codec round trip per
// RPC, same as a rep.store handler. It serves until stdin closes, which
// is how the parent tells it to exit.
func ServeRPCPeer() error {
	tr := transport.NewTCP()
	tr.Register("srv", func(from string, msg transport.Message) (transport.Message, error) {
		rec, err := state.DecodeRec(msg.Body)
		if err != nil {
			return transport.Message{}, err
		}
		rec.Ver++
		return transport.Message{Type: msg.Type, Body: state.EncodeRec(rec)}, nil
	})
	addr, err := tr.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	fmt.Printf("%s%s\n", rpcPeerAddrPrefix, addr.String())
	_, _ = io.Copy(io.Discard, os.Stdin)
	tr.Close()
	return nil
}

// rpcWorkers is the client-side concurrency of the RPC phase: enough
// in-flight calls that the mux's corked writer has frames to batch.
const rpcWorkers = 8

// runRPCPair spawns the server half as a child process, then drives it
// for d over the multiplexed connection.
func runRPCPair(d time.Duration) (WireThroughput, error) {
	var none WireThroughput
	exe, err := os.Executable()
	if err != nil {
		return none, err
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), RPCPeerEnv+"=1")
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return none, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return none, err
	}
	if err := cmd.Start(); err != nil {
		return none, err
	}
	defer func() {
		stdin.Close()
		done := make(chan struct{})
		go func() { cmd.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			cmd.Process.Kill()
			<-done
		}
	}()

	scanner := bufio.NewScanner(stdout)
	addr := ""
	for scanner.Scan() {
		if line := scanner.Text(); strings.HasPrefix(line, rpcPeerAddrPrefix) {
			addr = strings.TrimPrefix(line, rpcPeerAddrPrefix)
			break
		}
	}
	if addr == "" {
		return none, fmt.Errorf("RPC peer never printed its address")
	}
	return runRPCClient(addr, d)
}

// runRPCClient hammers the server from rpcWorkers goroutines for d and
// reports the merged throughput and latency percentiles.
func runRPCClient(addr string, d time.Duration) (WireThroughput, error) {
	tr := transport.NewTCP()
	tr.AddPeer("srv", addr)
	defer tr.Close()

	body := state.EncodeRec(benchRec)
	deadline := time.Now().Add(d)
	perWorker := make([][]time.Duration, rpcWorkers)
	errs := make(chan error, rpcWorkers)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < rpcWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lats := make([]time.Duration, 0, 1<<16)
			for time.Now().Before(deadline) && len(lats) < cap(lats) {
				t0 := time.Now()
				reply, err := tr.Call("cli", "srv", transport.Message{Type: "rep.store", Key: benchRec.Key, Body: body})
				if err != nil {
					errs <- err
					return
				}
				lats = append(lats, time.Since(t0))
				if rec, err := state.DecodeRec(reply.Body); err != nil || rec.Ver != benchRec.Ver+1 {
					errs <- fmt.Errorf("bad echo reply (ver=%d, err=%v)", rec.Ver, err)
					return
				}
			}
			perWorker[w] = lats
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(errs)
	for err := range errs {
		return WireThroughput{}, err
	}
	var all []time.Duration
	for _, lats := range perWorker {
		all = append(all, lats...)
	}
	return WireThroughput{
		Requests:  len(all),
		ReqPerSec: float64(len(all)) / elapsed.Seconds(),
		P50:       benchPercentile(all, 0.50),
		P99:       benchPercentile(all, 0.99),
	}, nil
}

// FormatThroughput renders the experiment for the console.
func FormatThroughput(r ThroughputResult) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "codec round trip (state.Rec):\n")
	fmt.Fprintf(&sb, "  binary:   %8.0f ns/op  %6.1f allocs/op  %8.1f B/op\n",
		r.CodecBinary.NsPerOp, r.CodecBinary.AllocsPerOp, r.CodecBinary.BytesPerOp)
	fmt.Fprintf(&sb, "  gob:      %8.0f ns/op  %6.1f allocs/op  %8.1f B/op  (historical: PR 6, codec since removed)\n",
		r.CodecGob.NsPerOp, r.CodecGob.AllocsPerOp, r.CodecGob.BytesPerOp)
	fmt.Fprintf(&sb, "  alloc reduction: %.1f%%  (historical: PR 6)\n", r.CodecAllocDropPct)
	fmt.Fprintf(&sb, "warm proxy loop:\n")
	fmt.Fprintf(&sb, "  %8.0f req/s  %6.1f allocs/op  %8.1f B/op  p50=%v p99=%v  (%d requests)\n",
		r.Proxy.ReqPerSec, r.Proxy.AllocsPerOp, r.Proxy.BytesPerOp, r.Proxy.P50, r.Proxy.P99, r.Proxy.Requests)
	fmt.Fprintf(&sb, "  alloc reduction vs seed (%.0f allocs/op): %.1f%%\n",
		r.ProxySeedAllocsPerOp, r.ProxyAllocDropPct)
	fmt.Fprintf(&sb, "two-process RPC pair (%d workers):\n", rpcWorkers)
	fmt.Fprintf(&sb, "  mux:      %8.0f req/s  p50=%v p99=%v  (%d requests)\n",
		r.RPCMux.ReqPerSec, r.RPCMux.P50, r.RPCMux.P99, r.RPCMux.Requests)
	fmt.Fprintf(&sb, "  one-shot: %8.0f req/s  p50=%v p99=%v  (%d requests)  (historical: PR 6, protocol since removed)\n",
		r.RPCOneShot.ReqPerSec, r.RPCOneShot.P50, r.RPCOneShot.P99, r.RPCOneShot.Requests)
	fmt.Fprintf(&sb, "  mux speedup: %.2fx  (historical: PR 6)\n", r.RPCMuxSpeedup)
	return sb.String()
}
