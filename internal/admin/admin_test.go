package admin_test

import (
	"encoding/json"
	"io"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"nakika/internal/admin"
	"nakika/internal/core"
	"nakika/internal/metrics"
	"nakika/internal/trace"
)

// The real edge node must satisfy the admin surface's view of it.
var _ admin.Node = (*core.Node)(nil)

type fakeNode struct {
	reg  *metrics.Registry
	ring *trace.Ring
}

func (f *fakeNode) Name() string               { return "test-node" }
func (f *fakeNode) Metrics() *metrics.Registry { return f.reg }
func (f *fakeNode) Traces() *trace.Ring        { return f.ring }
func (f *fakeNode) LoadScore() float64         { return 1.5 }

func newFakeNode() *fakeNode {
	reg := metrics.NewRegistry()
	reg.CounterFunc("nakika_requests_total", "Requests.", nil, func() float64 { return 7 })
	ring := trace.NewRing(8)
	for i, elapsed := range []time.Duration{time.Millisecond, 5 * time.Millisecond, 2 * time.Millisecond} {
		s := &trace.Sample{TraceID: uint64(i + 1), Node: "test-node", Method: "GET", Elapsed: elapsed, Status: 200}
		s.SetURL("origin.example", "/page")
		ring.Record(s)
	}
	return &fakeNode{reg: reg, ring: ring}
}

func get(t *testing.T, h *httptest.Server, path string) (int, string) {
	t.Helper()
	resp, err := h.Client().Get(h.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

func TestMetricsEndpointServesValidExposition(t *testing.T) {
	srv := httptest.NewServer(admin.NewHandler(newFakeNode()))
	defer srv.Close()
	code, body := get(t, srv, "/metrics")
	if code != 200 {
		t.Fatalf("/metrics returned %d", code)
	}
	families, err := metrics.ParseExposition(body)
	if err != nil {
		t.Fatalf("exposition does not parse: %v\n%s", err, body)
	}
	if !families["nakika_requests_total"] {
		t.Fatalf("nakika_requests_total missing from exposition:\n%s", body)
	}
	if !strings.Contains(body, "nakika_requests_total 7") {
		t.Fatalf("counter value not rendered:\n%s", body)
	}
}

func TestTracesEndpointDumpsSlowestFirst(t *testing.T) {
	srv := httptest.NewServer(admin.NewHandler(newFakeNode()))
	defer srv.Close()
	code, body := get(t, srv, "/admin/traces?n=2")
	if code != 200 {
		t.Fatalf("/admin/traces returned %d", code)
	}
	var dump admin.TraceDump
	if err := json.Unmarshal([]byte(body), &dump); err != nil {
		t.Fatalf("traces dump does not parse: %v\n%s", err, body)
	}
	if dump.Node != "test-node" || dump.Count != 2 {
		t.Fatalf("dump = node %q count %d, want test-node/2", dump.Node, dump.Count)
	}
	// Slowest first: 5ms (id 2), then 2ms (id 3).
	if dump.Samples[0].Elapsed < dump.Samples[1].Elapsed {
		t.Fatalf("samples not sorted by descending elapsed: %+v", dump.Samples)
	}
	if dump.Samples[0].TraceID != "0000000000000002" {
		t.Fatalf("slowest sample trace id = %s, want 0000000000000002", dump.Samples[0].TraceID)
	}
	if dump.Samples[0].URL != "origin.example/page" {
		t.Fatalf("sample url = %q", dump.Samples[0].URL)
	}
}

func TestStatuszAndPprofRespond(t *testing.T) {
	srv := httptest.NewServer(admin.NewHandler(newFakeNode()))
	defer srv.Close()
	code, body := get(t, srv, "/admin/statusz")
	if code != 200 || !strings.Contains(body, "test-node") {
		t.Fatalf("/admin/statusz = %d\n%s", code, body)
	}
	if code, _ := get(t, srv, "/debug/pprof/"); code != 200 {
		t.Fatalf("/debug/pprof/ returned %d", code)
	}
}

func TestDisabledObservabilityDegradesTo503(t *testing.T) {
	srv := httptest.NewServer(admin.NewHandler(&fakeNode{}))
	defer srv.Close()
	if code, _ := get(t, srv, "/metrics"); code != 503 {
		t.Fatalf("/metrics without a registry returned %d, want 503", code)
	}
	if code, _ := get(t, srv, "/admin/traces"); code != 503 {
		t.Fatalf("/admin/traces without a ring returned %d, want 503", code)
	}
}
