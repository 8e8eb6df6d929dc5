// Repository-level benchmarks: one testing.B benchmark per table and figure
// in the paper's evaluation (Section 5), plus ablation benches for the
// design choices called out in DESIGN.md. Run with:
//
//	go test -bench=. -benchmem
//
// The full parameter sweeps (with printed tables matching the paper's rows)
// live in cmd/nakika-bench; these benchmarks exercise the same harness code
// at benchmark-friendly sizes and report ns/op for the key operations.
package nakika

import (
	"testing"
	"time"

	"nakika/internal/bench"
	"nakika/internal/httpmsg"
	"nakika/internal/script"
)

// --- Table 1 / Table 2: micro-benchmark configurations --------------------

func benchmarkMicroConfig(b *testing.B, cfg bench.MicroConfig) {
	b.Helper()
	res, err := bench.RunMicro(cfg, 3)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(res.Cold.Microseconds()), "cold-us")
	b.ReportMetric(float64(res.Warm.Microseconds()), "warm-us")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bench.RunMicro(cfg, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable2_Proxy(b *testing.B)   { benchmarkMicroConfig(b, bench.ConfigProxy) }
func BenchmarkTable2_DHT(b *testing.B)     { benchmarkMicroConfig(b, bench.ConfigDHT) }
func BenchmarkTable2_Admin(b *testing.B)   { benchmarkMicroConfig(b, bench.ConfigAdmin) }
func BenchmarkTable2_Pred0(b *testing.B)   { benchmarkMicroConfig(b, bench.ConfigPred0) }
func BenchmarkTable2_Pred1(b *testing.B)   { benchmarkMicroConfig(b, bench.ConfigPred1) }
func BenchmarkTable2_Match1(b *testing.B)  { benchmarkMicroConfig(b, bench.ConfigMatch1) }
func BenchmarkTable2_Pred10(b *testing.B)  { benchmarkMicroConfig(b, bench.ConfigPred10) }
func BenchmarkTable2_Pred50(b *testing.B)  { benchmarkMicroConfig(b, bench.ConfigPred50) }
func BenchmarkTable2_Pred100(b *testing.B) { benchmarkMicroConfig(b, bench.ConfigPred100) }

// --- Section 5.1 cost breakdown --------------------------------------------

func BenchmarkCostBreakdown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.RunBreakdown(5); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Section 5.1 resource controls ------------------------------------------

func BenchmarkResourceControls_WithControls(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := bench.RunResourceControls(4, true, true, 100*time.Millisecond)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Throughput, "req/s")
	}
}

func BenchmarkResourceControls_WithoutControls(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := bench.RunResourceControls(4, false, true, 100*time.Millisecond)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Throughput, "req/s")
	}
}

// --- Section 5.2 / Figure 7: SIMM wide-area experiment ---------------------

func benchmarkFigure7(b *testing.B, mode bench.SIMMMode, clients int) {
	for i := 0; i < b.N; i++ {
		res := bench.RunSIMM(mode, bench.SIMMParams{Clients: clients, Duration: 20 * time.Second})
		b.ReportMetric(res.HTML90th.Seconds(), "html-90th-s")
		b.ReportMetric(res.VideoOKPct, "video-ok-%")
	}
}

func BenchmarkFigure7_SingleServer_240(b *testing.B) {
	benchmarkFigure7(b, bench.SIMMSingleServer, 240)
}
func BenchmarkFigure7_ColdCache_240(b *testing.B) { benchmarkFigure7(b, bench.SIMMColdCache, 240) }
func BenchmarkFigure7_WarmCache_240(b *testing.B) { benchmarkFigure7(b, bench.SIMMWarmCache, 240) }
func BenchmarkFigure7_SingleServer_120(b *testing.B) {
	benchmarkFigure7(b, bench.SIMMSingleServer, 120)
}
func BenchmarkFigure7_WarmCache_120(b *testing.B) { benchmarkFigure7(b, bench.SIMMWarmCache, 120) }

// --- Ablations (DESIGN.md Section 5) ---------------------------------------

// Script context reuse vs. fresh context per request.
func BenchmarkContextReuse_Fresh(b *testing.B) {
	src := `var t = 0; for (var i = 0; i < 100; i++) { t += i; }`
	prog, err := script.Parse(src, "bench.js")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx := script.NewContext(script.Limits{})
		if _, err := ctx.Run(prog); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkContextReuse_Reused(b *testing.B) {
	src := `var t = 0; for (var i = 0; i < 100; i++) { t += i; }`
	prog, err := script.Parse(src, "bench.js")
	if err != nil {
		b.Fatal(err)
	}
	ctx := script.NewContext(script.Limits{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ctx.Run(prog); err != nil {
			b.Fatal(err)
		}
	}
}

// Byte-array body handling vs. string concatenation.
func BenchmarkByteArray_Append(b *testing.B) {
	ctx := script.NewContext(script.Limits{})
	src := `
		var body = new ByteArray();
		for (var i = 0; i < 50; i++) { body.append("0123456789abcdef"); }
		body.length
	`
	prog, err := script.Parse(src, "ba.js")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ctx.Run(prog); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkByteArray_StringConcat(b *testing.B) {
	ctx := script.NewContext(script.Limits{})
	src := `
		var body = "";
		for (var i = 0; i < 50; i++) { body = body + "0123456789abcdef"; }
		body.length
	`
	prog, err := script.Parse(src, "sc.js")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ctx.Run(prog); err != nil {
			b.Fatal(err)
		}
	}
}

// Cooperative (DHT) cache vs. local-only caching: origin fetches needed to
// serve the same object from two nodes.
func BenchmarkCooperativeCache(b *testing.B) {
	origin := FetcherFunc(func(req *httpmsg.Request) (*httpmsg.Response, error) {
		r := NewHTMLResponse(200, "shared object")
		r.SetMaxAge(600)
		return r, nil
	})
	b.Run("with-overlay", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ring := NewRing()
			dir := NewDirectory()
			a, _ := NewNode(Config{Name: "a", Upstream: origin, Ring: ring, Directory: dir})
			c, _ := NewNode(Config{Name: "c", Upstream: origin, Ring: ring, Directory: dir})
			_, _, _ = a.Handle(MustRequest("GET", "http://obj.example.org/x"))
			_, _, _ = c.Handle(MustRequest("GET", "http://obj.example.org/x"))
		}
	})
	b.Run("local-only", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			a, _ := NewNode(Config{Name: "a", Upstream: origin})
			c, _ := NewNode(Config{Name: "c", Upstream: origin})
			_, _, _ = a.Handle(MustRequest("GET", "http://obj.example.org/x"))
			_, _, _ = c.Handle(MustRequest("GET", "http://obj.example.org/x"))
		}
	})
}

// Script interpreter throughput on the Figure 2 workload shape.
func BenchmarkScriptPipelineStage(b *testing.B) {
	node, err := bench.NewConcurrentNode(bench.ConfigMatch1)
	if err != nil {
		b.Fatal(err)
	}
	req := MustRequest("GET", "http://static.example.org/index.html")
	req.ClientIP = "10.0.0.1"
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := node.Handle(req.Clone()); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Concurrency family: pooled stage contexts, sharded cache. ------------
// --- Run with -cpu 1,2,4,8 to see scaling. ---------------------------------

func benchmarkConcurrentHandle(b *testing.B, cfg bench.MicroConfig) {
	b.Helper()
	node, err := bench.NewConcurrentNode(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			resp, _, err := node.Handle(bench.ConcurrentRequest())
			if err != nil {
				b.Error(err)
				return
			}
			if resp.Status != 200 {
				b.Errorf("status = %d", resp.Status)
				return
			}
		}
	})
}

// BenchmarkConcurrentProxyWarm is the warm proxy path: cache hits only, no
// script handlers. Throughput should scale with -cpu since no request takes
// a global lock.
func BenchmarkConcurrentProxyWarm(b *testing.B) {
	benchmarkConcurrentHandle(b, bench.ConfigProxy)
}

// BenchmarkConcurrentMatch1 adds one matching policy whose onRequest and
// onResponse handlers execute in pooled per-stage contexts; before the pool
// existed every request serialized on the stage's single context mutex.
func BenchmarkConcurrentMatch1(b *testing.B) {
	benchmarkConcurrentHandle(b, bench.ConfigMatch1)
}
