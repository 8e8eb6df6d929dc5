package main

import (
	"bytes"
	"os"
	"regexp"
	"testing"
)

// BENCHMARK.json at the repository root is generated; it must not drift
// from the tables in this package.
func TestBenchmarkJSONIsCurrent(t *testing.T) {
	onDisk, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(onDisk, benchmarkJSON()) {
		t.Error("BENCHMARK.json is stale: regenerate it with `go run . -benchmark-json > ../BENCHMARK.json` in benchmark/")
	}
}

// The limits the benchmark contract puts on names, units and counts.
func TestSpecWithinContractLimits(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := make(map[string]bool)
	check := func(kind, n string) {
		if !name.MatchString(n) {
			t.Errorf("%s name %q is not a valid name", kind, n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if len(workloads) < 2 || len(workloads) > 8 {
		t.Errorf("%d workloads, want 2 to 8", len(workloads))
	}
	for _, w := range workloads {
		check("workload", w.name)
		if len(w.why) == 0 || len(w.why) > 200 || regexp.MustCompile(`[\r\n]`).MatchString(w.why) {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", w.name, len(w.why))
		}
	}
	if len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics, want at most 16 and 128", len(endToEnd), len(perLayer))
	}
	largest := 0.0
	for _, s := range append(append([]metricSpec(nil), endToEnd...), perLayer...) {
		check("metric", s.name)
		if !unit.MatchString(s.unit) {
			t.Errorf("%s: unit %q is not a valid unit", s.name, s.unit)
		}
		if s.better != "lower" && s.better != "higher" {
			t.Errorf("%s: better is %q", s.name, s.better)
		}
		largest = max(largest, s.bound)
	}
	for _, s := range endToEnd {
		if s.bound <= 0 || s.bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", s.name, s.bound)
		}
	}
	if endToEnd[0].name != "setup_s" || endToEnd[0].unit != "s" || endToEnd[0].better != "lower" || endToEnd[0].bound != largest {
		t.Errorf("setup_s must be an end-to-end metric in s, lower is better, with the largest bound (%g)", largest)
	}
}
