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
	"bufio"
	"bytes"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"nakika/internal/bench"
	"nakika/internal/core"
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
			a, _ := NewNode(Config{Name: "a", Upstream: origin, Ring: ring})
			c, _ := NewNode(Config{Name: "c", Upstream: origin, Ring: ring})
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

// --- nakikad's node through its client port ---------------------------------
// --- Run the Concurrent family with -cpu 1,2,4,8 to see scaling. -------------

// daemonPage is the page every request below asks for: 2 096 bytes, the
// size of Table 2's static page.
const daemonPage = "http://static.example.org/index.html"

// servedDaemon starts the node nakikad builds at its default flags
// (core.ParseDaemon) on a loopback port, in front of an origin that serves
// daemonPage and, with match1, a site nakika.js whose one policy matches it
// and runs an empty onRequest and onResponse (Table 2's Match-1). The walls
// are set and answer 404. It returns the client port's address with the
// page cached and the site's stages loaded.
func servedDaemon(b *testing.B, match1 bool) string {
	b.Helper()
	origin := FetcherFunc(func(req *httpmsg.Request) (*httpmsg.Response, error) {
		switch {
		case req.URL.String() == daemonPage:
			r := NewHTMLResponse(200, strings.Repeat("<p>static page</p>", 116))
			r.SetMaxAge(600)
			return r, nil
		case match1 && req.Path() == "/nakika.js":
			r := NewTextResponse(200, `var p = new Policy(); p.url = [ "static.example.org" ];
				p.onRequest = function() { }; p.onResponse = function() { }; p.register();`)
			r.SetMaxAge(600)
			return r, nil
		}
		return NewTextResponse(404, "not found"), nil
	})
	d, err := core.ParseDaemon([]string{"-clientwall", "http://nakika.net/clientwall.js", "-serverwall", "http://nakika.net/serverwall.js"}, io.Discard)
	if err != nil {
		b.Fatal(err)
	}
	d.Config.Upstream = origin
	node, err := core.NewNode(d.Config)
	if err != nil {
		b.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go node.Serve(ln)
	b.Cleanup(func() { ln.Close() })
	newPageClient(b, ln.Addr().String()).get(b)
	return ln.Addr().String()
}

// pageClient asks for daemonPage on one keep-alive connection, reading each
// reply into a buffer it reuses.
type pageClient struct {
	conn net.Conn
	br   *bufio.Reader
	body []byte
}

func newPageClient(b *testing.B, addr string) *pageClient {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { conn.Close() })
	return &pageClient{conn: conn, br: bufio.NewReaderSize(conn, 16<<10), body: make([]byte, 16<<10)}
}

// pageGet asks for daemonPage in origin form, as a client that reaches the
// node by name sends it.
var pageGet = []byte("GET /index.html HTTP/1.1\r\nHost: static.example.org\r\n\r\n")

// get sends one request and reads its 200 reply; it reports a failure
// with b.Error, so it may run on a RunParallel goroutine.
func (c *pageClient) get(b *testing.B) bool {
	if _, err := c.conn.Write(pageGet); err != nil {
		b.Error(err)
		return false
	}
	first, ok, length := true, false, -1
	for {
		line, err := c.br.ReadSlice('\n')
		if err != nil {
			b.Error(err)
			return false
		}
		switch {
		case first:
			first, ok = false, bytes.HasPrefix(line, []byte("HTTP/1.1 200 "))
		case len(line) <= 2:
			if !ok || length < 0 || length > len(c.body) {
				b.Errorf("a reply other than 200, or with Content-Length %d", length)
				return false
			}
			if _, err := io.ReadFull(c.br, c.body[:length]); err != nil {
				b.Error(err)
				return false
			}
			return true
		case bytes.HasPrefix(line, []byte("Content-Length: ")):
			length = 0
			for _, d := range bytes.TrimSpace(line[len("Content-Length: "):]) {
				length = length*10 + int(d-'0')
			}
		}
	}
}

// BenchmarkScriptPipelineStage is one client's warm Match-1 page: the site
// stage's onRequest and onResponse run on every request, in a pooled stage
// context.
func BenchmarkScriptPipelineStage(b *testing.B) {
	c := newPageClient(b, servedDaemon(b, true))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N && c.get(b); i++ {
	}
}

// benchmarkConcurrentGets runs one keep-alive client per RunParallel
// goroutine against one node.
func benchmarkConcurrentGets(b *testing.B, match1 bool) {
	addr := servedDaemon(b, match1)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		c := newPageClient(b, addr)
		for pb.Next() && c.get(b) {
		}
	})
}

// BenchmarkConcurrentProxyWarm is the warm proxy path: cache hits, no
// script handler. Throughput should scale with -cpu since no request takes
// a global lock.
func BenchmarkConcurrentProxyWarm(b *testing.B) { benchmarkConcurrentGets(b, false) }

// BenchmarkConcurrentMatch1 adds one matching policy whose onRequest and
// onResponse handlers execute in pooled per-stage contexts; before the pool
// existed every request serialized on the stage's single context mutex.
func BenchmarkConcurrentMatch1(b *testing.B) { benchmarkConcurrentGets(b, true) }
