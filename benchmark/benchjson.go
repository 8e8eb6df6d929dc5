package main

import (
	"bytes"
	"encoding/json"
)

// runSeconds is the window length BENCHMARK.json asks the driver to pass
// as --seconds.
const runSeconds = 10

// benchmarkJSON renders BENCHMARK.json from the workload table and the
// metric lists, so the file at the repository root is written by
// `-benchmark-json` rather than by hand, and a test holds it to that.
func benchmarkJSON() []byte {
	type workloadEntry struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type boundedMetric struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layerMetric struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string        `json:"command"`
		Paths      []string        `json:"paths"`
		RunSeconds int             `json:"run_seconds"`
		Workloads  []workloadEntry `json:"workloads"`
		EndToEnd   []boundedMetric `json:"end_to_end"`
		PerLayer   []layerMetric   `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, workloadEntry{w.name, w.why})
	}
	for _, s := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, boundedMetric{s.name, s.unit, s.better, s.bound})
	}
	for _, s := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layerMetric{s.name, s.unit, s.better})
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		panic(err) // plain strings and numbers always encode
	}
	return buf.Bytes()
}
