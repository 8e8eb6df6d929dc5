package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// smoke returns a copy of w with populations and warm-up small enough
// for a test to set it up in milliseconds. The code paths are the same;
// cache_churn's keys then fit in memory, so its disk tier stays idle.
func (w *workload) smoke() *workload {
	s := *w
	s.keys = min(w.keys, 48)
	s.users = min(w.users, 12)
	s.objectBytes = min(w.objectBytes, 3<<20)
	s.warmExtra = min(w.warmExtra, 16)
	return &s
}

// Every workload, scaled down and run inside this process at 200 ops:
// the run must be correct and must emit every named metric exactly once,
// with its unit, in the result line the driver reads.
func TestSmokeEveryWorkloadEmitsEveryMetric(t *testing.T) {
	for _, full := range workloads {
		w := full.smoke()
		t.Run(w.name, func(t *testing.T) {
			dir := t.TempDir()
			cfg := runConfig{
				start: inprocStarter(nil), workDir: dir, outDir: filepath.Join(dir, "out"),
				seed: 1, seconds: runSeconds, setups: 2, layers: true, windowOps: 200,
			}
			res, err := runWorkload(cfg, w)
			if err != nil {
				t.Fatal(err)
			}
			if !res.correct() || res.attempted != 200 || res.failed != 0 {
				t.Fatalf("attempted %d, failed %d, problems %v", res.attempted, res.failed, res.problems)
			}
			for _, specs := range [][]metricSpec{endToEnd, perLayer} {
				line := resultLine(res, specs)
				var got struct {
					Correct   *bool `json:"correct"`
					Attempted *int  `json:"attempted"`
					Failed    *int  `json:"failed"`
					Metrics   map[string]struct {
						Value *float64 `json:"value"`
						Unit  string   `json:"unit"`
					} `json:"metrics"`
				}
				dec := json.NewDecoder(strings.NewReader(line))
				dec.DisallowUnknownFields()
				if err := dec.Decode(&got); err != nil {
					t.Fatalf("result line does not parse: %v\n%s", err, line)
				}
				if got.Correct == nil || got.Attempted == nil || got.Failed == nil || len(got.Metrics) != len(specs) {
					t.Fatalf("result line lacks a key or has %d metrics, want %d:\n%s", len(got.Metrics), len(specs), line)
				}
				for _, s := range specs {
					v, ok := got.Metrics[s.name]
					if !ok || v.Value == nil || v.Unit != s.unit {
						t.Errorf("%s: missing or without unit %q in the result line", s.name, s.unit)
					}
					if n := strings.Count(line, `"`+s.name+`":`); n != 1 {
						t.Errorf("%s is emitted %d times, want once", s.name, n)
					}
				}
			}
			for _, name := range []string{"setup_s", "node_rss_mb", "origin_offload_share", "node_rss_peak_mb", "req_per_s", "p50_us", "p90_us", "ttfb_p50_us", "core.serve_http_us", "core.handle_ns_per_req", "pipeline.execute_ns_per_req"} {
				if res.metrics[name] <= 0 {
					t.Errorf("%s = %g, want a positive measurement", name, res.metrics[name])
				}
			}
			var trace struct {
				Spans []span `json:"spans"`
			}
			raw, err := os.ReadFile(filepath.Join(cfg.outDir, "trace-"+w.name+".json"))
			if err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(raw, &trace); err != nil || len(trace.Spans) == 0 {
				t.Fatalf("trace file: %v, %d spans", err, len(trace.Spans))
			}
		})
	}
}
