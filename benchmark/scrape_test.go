package main

import (
	"strings"
	"testing"
)

const sampleExposition = `# HELP nakika_requests_total Requests arriving at this node (kept or offloaded).
# TYPE nakika_requests_total counter
nakika_requests_total 120
# HELP nakika_fetches_total Resource fetches by where they were served.
# TYPE nakika_fetches_total counter
nakika_fetches_total{source="cache"} 100
nakika_fetches_total{source="origin"} 20
# TYPE nakika_request_seconds histogram
nakika_request_seconds_bucket{le="0.001"} 90
nakika_request_seconds_bucket{le="+Inf"} 120
nakika_request_seconds_sum 0.25
nakika_request_seconds_count 120
`

func TestScrapeParseAndDelta(t *testing.T) {
	before, err := parseScrape(sampleExposition)
	if err != nil {
		t.Fatal(err)
	}
	after, err := parseScrape(strings.NewReplacer(
		"nakika_requests_total 120", "nakika_requests_total 170",
		`{source="cache"} 100`, `{source="cache"} 149`,
		`{source="origin"} 20`, `{source="origin"} 21`,
	).Replace(sampleExposition))
	if err != nil {
		t.Fatal(err)
	}
	d := after.delta(before)
	for series, want := range map[string]float64{
		"nakika_requests_total":                    50,
		`nakika_fetches_total{source="cache"}`:     49,
		`nakika_fetches_total{source="origin"}`:    1,
		`nakika_request_seconds_bucket{le="+Inf"}`: 0,
	} {
		if got, ok := d[series]; !ok || got != want {
			t.Errorf("delta[%s] = %g (present %v), want %g", series, got, ok, want)
		}
	}
	if _, err := parseScrape("nakika_requests_total twelve\n"); err == nil {
		t.Error("a malformed value must be refused, as internal/metrics' parser refuses it")
	}
}
