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
	"bytes"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
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

// series is one registered time series: a read-at-scrape callback or a
// histogram. lines are its sample lines up to their values, rendered at
// registration: `name{k="v",...}` for a callback, and for a histogram one
// per bucket (+Inf last), then _sum's and _count's.
type series struct {
	lines []string
	fn    func() float64
	hist  *Histogram
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
	// size bounds the exposition's length: every line's fixed bytes and
	// the longest value appendValue writes (-2.2250738585072014e-308, 24
	// bytes), summed as series register.
	size int
	// textMu serializes scrapes over text, the buffer they render into,
	// allocated at size.
	textMu sync.Mutex
	text   []byte
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
		r.size += len("# HELP  \n# TYPE  \n") + 2*len(name) + len(help) + len(typ)
	}
	f.series = append(f.series, s)
	for _, line := range s.lines {
		r.size += len(line) + 1 + 24 + 1 // a space, the value, a newline
	}
}

// CounterFunc registers a counter whose value is read at scrape time —
// the zero-hot-path-cost way to export an existing atomic.
func (r *Registry) CounterFunc(name, help string, labels Labels, fn func() float64) {
	r.add(name, help, "counter", &series{lines: []string{name + renderLabels(labels)}, fn: fn})
}

// GaugeFunc registers a gauge whose value is read at scrape time.
func (r *Registry) GaugeFunc(name, help string, labels Labels, fn func() float64) {
	r.add(name, help, "gauge", &series{lines: []string{name + renderLabels(labels)}, fn: fn})
}

// NewHistogramSeries registers and returns a histogram series.
func (r *Registry) NewHistogramSeries(name, help string, labels Labels, bounds []float64) *Histogram {
	h := NewHistogram(bounds)
	l := renderLabels(labels)
	le := "{le=" // the bucket label spliced into the others
	if l != "" {
		le = l[:len(l)-1] + ",le="
	}
	s := &series{hist: h}
	for _, b := range h.bounds {
		s.lines = append(s.lines, fmt.Sprintf("%s_bucket%s%q}", name, le, appendValue(nil, b)))
	}
	s.lines = append(s.lines, name+"_bucket"+le+`"+Inf"}`, name+"_sum"+l, name+"_count"+l)
	r.add(name, help, "histogram", s)
	return h
}

// WriteText renders every registered family in Prometheus text
// exposition format into a buffer the registry keeps between scrapes, and
// writes it to w in one Write. The buffer is allocated once, at the bound
// registration keeps, so a scrape allocates nothing of its own.
func (r *Registry) WriteText(w io.Writer) error {
	r.textMu.Lock()
	defer r.textMu.Unlock()
	_, err := w.Write(r.render())
	return err
}

// Text returns the exposition WriteText writes in a slice of its own, for
// a caller that keeps it past the scrape: one allocation of its length.
func (r *Registry) Text() []byte {
	r.textMu.Lock()
	defer r.textMu.Unlock()
	return bytes.Clone(r.render())
}

// render renders the exposition into the kept buffer and returns it; the
// caller holds textMu.
func (r *Registry) render() []byte {
	r.mu.Lock()
	fams, size := r.fams[:len(r.fams):len(r.fams)], r.size // append-only: the prefix is stable
	r.mu.Unlock()
	if cap(r.text) < size {
		r.text = make([]byte, 0, size)
	}
	b := r.text[:0]
	for _, f := range fams {
		if f.help != "" {
			b = appendStrings(b, "# HELP ", f.name, " ", f.help, "\n")
		}
		b = appendStrings(b, "# TYPE ", f.name, " ", f.typ, "\n")
		r.mu.Lock()
		series := f.series
		r.mu.Unlock()
		for _, s := range series {
			if s.hist == nil {
				b = appendSample(b, s.lines[0], s.fn())
				continue
			}
			// Cumulative bucket counts, per the exposition format.
			h, cum := s.hist, uint64(0)
			for i := range h.counts {
				cum += h.counts[i].Load()
				b = appendSample(b, s.lines[i], float64(cum))
			}
			b = appendSample(b, s.lines[len(h.counts)], h.Sum())
			b = appendSample(b, s.lines[len(h.counts)+1], float64(h.Count()))
		}
	}
	r.text = b
	return b
}

// appendStrings appends every string of ss.
func appendStrings(b []byte, ss ...string) []byte {
	for _, s := range ss {
		b = append(b, s...)
	}
	return b
}

// appendSample appends one sample line: its rendered start, a space and v.
func appendSample(b []byte, line string, v float64) []byte {
	return append(appendValue(append(append(b, line...), ' '), v), '\n')
}

// appendValue appends v as an integer when it is one, else in %g's form.
func appendValue(b []byte, v float64) []byte {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.AppendInt(b, int64(v), 10)
	}
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}
