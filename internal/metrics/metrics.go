// Package metrics is a dependency-free metrics registry built for Na
// Kika's hot path: histograms are fixed-bucket atomic arrays, and nothing
// on the observe path allocates or takes a lock. Rendering follows the
// Prometheus text exposition format so any standard scraper can consume
// the admin listener's /metrics endpoint.
//
// Counters and gauges are CounterFunc/GaugeFunc callbacks that read the
// node's existing atomic counters at scrape time, so exporting them costs
// the hot path nothing at all.
package metrics

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Histogram is a fixed-bucket cumulative histogram. Observe is
// lock-free and allocation-free: a linear scan over a small bound
// array, one atomic add on the bucket, one on the count, and a CAS
// loop folding the observation into the float64 sum.
type Histogram struct {
	bounds []float64       // ascending upper bounds; +Inf is implicit
	counts []atomic.Uint64 // len(bounds)+1, last is the +Inf bucket
	count  atomic.Uint64
	sum    atomic.Uint64 // math.Float64bits
}

// NewHistogram returns a histogram over the given ascending bucket
// upper bounds. The +Inf bucket is implicit.
func NewHistogram(bounds []float64) *Histogram {
	b := make([]float64, len(bounds))
	copy(b, bounds)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b)+1)}
}

// DefBuckets are latency buckets (seconds) tuned for an edge proxy:
// from 100µs local cache hits to multi-second origin stalls.
var DefBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5,
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of observations.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// series is one registered time series: a concrete metric or a
// read-at-scrape callback.
type series struct {
	name   string
	labels string // pre-rendered `{k="v",...}` or ""
	fn     func() float64
	hist   *Histogram
}

// family groups the series sharing one metric name.
type family struct {
	name, help, typ string
	series          []*series
}

// Registry holds registered metric families and renders them in
// Prometheus text exposition format. Registration takes a lock (cold
// path); registered metrics are updated without touching the registry.
type Registry struct {
	mu    sync.Mutex
	fams  []*family
	byKey map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{byKey: make(map[string]*family)} }

// Labels are rendered sorted by key; registration-time only, never on
// the hot path.
type Labels map[string]string

func renderLabels(l Labels) string {
	if len(l) == 0 {
		return ""
	}
	keys := make([]string, 0, len(l))
	for k := range l {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", k, l[k])
	}
	b.WriteByte('}')
	return b.String()
}

func (r *Registry) add(name, help, typ string, s *series) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.byKey[name]
	if f == nil {
		f = &family{name: name, help: help, typ: typ}
		r.byKey[name] = f
		r.fams = append(r.fams, f)
	}
	f.series = append(f.series, s)
}

// CounterFunc registers a counter whose value is read at scrape time —
// the zero-hot-path-cost way to export an existing atomic.
func (r *Registry) CounterFunc(name, help string, labels Labels, fn func() float64) {
	r.add(name, help, "counter", &series{name: name, labels: renderLabels(labels), fn: fn})
}

// GaugeFunc registers a gauge whose value is read at scrape time.
func (r *Registry) GaugeFunc(name, help string, labels Labels, fn func() float64) {
	r.add(name, help, "gauge", &series{name: name, labels: renderLabels(labels), fn: fn})
}

// NewHistogramSeries registers and returns a histogram series.
func (r *Registry) NewHistogramSeries(name, help string, labels Labels, bounds []float64) *Histogram {
	h := NewHistogram(bounds)
	r.add(name, help, "histogram", &series{name: name, labels: renderLabels(labels), hist: h})
	return h
}

// WriteText renders every registered family in Prometheus text
// exposition format.
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.Lock()
	fams := make([]*family, len(r.fams))
	copy(fams, r.fams)
	r.mu.Unlock()
	for _, f := range fams {
		if f.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.name, f.help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.typ); err != nil {
			return err
		}
		for _, s := range f.series {
			if s.hist != nil {
				if err := writeHistogram(w, s); err != nil {
					return err
				}
				continue
			}
			if _, err := fmt.Fprintf(w, "%s%s %s\n", s.name, s.labels, formatValue(s.fn())); err != nil {
				return err
			}
		}
	}
	return nil
}

func writeHistogram(w io.Writer, s *series) error {
	h := s.hist
	// Cumulative bucket counts, per the exposition format.
	var cum uint64
	for i, bound := range h.bounds {
		cum += h.counts[i].Load()
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", s.name, withLabel(s.labels, "le", formatValue(bound)), cum); err != nil {
			return err
		}
	}
	cum += h.counts[len(h.bounds)].Load()
	if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", s.name, withLabel(s.labels, "le", "+Inf"), cum); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", s.name, s.labels, formatValue(h.Sum())); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", s.name, s.labels, h.Count())
	return err
}

// withLabel splices one extra label into a pre-rendered label block.
func withLabel(labels, key, value string) string {
	extra := fmt.Sprintf("%s=%q", key, value)
	if labels == "" {
		return "{" + extra + "}"
	}
	return labels[:len(labels)-1] + "," + extra + "}"
}

func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}
