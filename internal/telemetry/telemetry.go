// Package telemetry is the reproduction's stdlib-only observability
// layer: atomic counters, gauges and fixed-bucket latency histograms
// collected in a Registry, a lightweight span tracer for per-negotiation
// traces, a hand-rendered Prometheus text exposition, and a structured
// JSON run report with per-series percentiles.
//
// Everything is nil-tolerant by design: a nil *Registry hands out nil
// metrics, and every method on a nil *Counter, *Gauge, *Histogram,
// *Trace or *Span is a no-op. Instrumented hot paths therefore pay a
// single pointer comparison when telemetry is disabled (see the
// BenchmarkTelemetryCounterDisabled guard in the repository root).
package telemetry

import (
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Inc adds one. No-op on a nil counter.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v.Add(1)
}

// Add adds n. No-op on a nil counter.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 for nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous value.
type Gauge struct {
	v atomic.Int64
}

// Set stores n. No-op on a nil gauge.
func (g *Gauge) Set(n int64) {
	if g == nil {
		return
	}
	g.v.Store(n)
}

// Add adds n (negative to subtract). No-op on a nil gauge.
func (g *Gauge) Add(n int64) {
	if g == nil {
		return
	}
	g.v.Add(n)
}

// Inc adds one.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current value (0 for nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// series identifies one registered time series: a metric name plus its
// sorted label pairs.
type series struct {
	name   string
	labels []string // alternating key, value; sorted by key
}

// key renders the canonical series identity: name{k="v",...}.
func (s series) key() string {
	return string(appendSeriesKey(nil, s.name, s.labels))
}

// labelOrder appends to dst the index of each key in the alternating
// key/value labels, in stable key order; a dangling key is dropped.
func labelOrder(dst []int, labels []string) []int {
	for i := 0; i+1 < len(labels); i += 2 {
		j := len(dst)
		dst = append(dst, i)
		for ; j > 0 && labels[dst[j-1]] > labels[i]; j-- {
			dst[j] = dst[j-1]
		}
		dst[j] = i
	}
	return dst
}

// appendSeriesKey renders the canonical identity of name and labels
// into dst. Up to 16 label pairs are ordered through a stack index
// array, so rendering into a stack buffer allocates nothing.
func appendSeriesKey(dst []byte, name string, labels []string) []byte {
	dst = append(dst, name...)
	if len(labels) < 2 {
		return dst
	}
	var buf [16]int
	dst = append(dst, '{')
	for n, i := range labelOrder(buf[:0], labels) {
		if n > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, labels[i]...)
		dst = append(dst, `="`...)
		dst = appendEscapedLabel(dst, labels[i+1])
		dst = append(dst, '"')
	}
	return append(dst, '}')
}

func appendEscapedLabel(dst []byte, v string) []byte {
	for i := 0; i < len(v); i++ {
		switch c := v[i]; c {
		case '\\':
			dst = append(dst, `\\`...)
		case '"':
			dst = append(dst, `\"`...)
		case '\n':
			dst = append(dst, `\n`...)
		default:
			dst = append(dst, c)
		}
	}
	return dst
}

// makeSeries copies name/labels into a registered series with its label
// pairs in canonical order.
func makeSeries(name string, labels []string) series {
	order := labelOrder(nil, labels)
	sorted := make([]string, 0, 2*len(order))
	for _, i := range order {
		sorted = append(sorted, labels[i], labels[i+1])
	}
	return series{name: name, labels: sorted}
}

// keyBufSize bounds the stack buffer a lookup renders its series key
// into; longer keys spill to the heap.
const keyBufSize = 256

// Registry is a named collection of metrics. The zero value is not
// usable; call NewRegistry. A nil *Registry is valid everywhere and
// hands out nil (no-op) metrics, so telemetry can be switched off by
// leaving the registry unset.
type Registry struct {
	mu        sync.Mutex
	counters  map[string]*counterSeries
	gauges    map[string]*gaugeSeries
	histories map[string]*histogramSeries
}

type counterSeries struct {
	series
	c *Counter
}

type gaugeSeries struct {
	series
	g *Gauge
}

type histogramSeries struct {
	series
	h *Histogram
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:  make(map[string]*counterSeries),
		gauges:    make(map[string]*gaugeSeries),
		histories: make(map[string]*histogramSeries),
	}
}

// Counter returns (registering on first use) the counter for name and
// the alternating key/value label pairs. nil registry → nil counter.
func (r *Registry) Counter(name string, labels ...string) *Counter {
	if r == nil {
		return nil
	}
	var buf [keyBufSize]byte
	k := appendSeriesKey(buf[:0], name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if cs, ok := r.counters[string(k)]; ok {
		return cs.c
	}
	cs := &counterSeries{series: makeSeries(name, labels), c: &Counter{}}
	r.counters[string(k)] = cs
	return cs.c
}

// Gauge returns (registering on first use) the gauge for name/labels.
func (r *Registry) Gauge(name string, labels ...string) *Gauge {
	if r == nil {
		return nil
	}
	var buf [keyBufSize]byte
	k := appendSeriesKey(buf[:0], name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if gs, ok := r.gauges[string(k)]; ok {
		return gs.g
	}
	gs := &gaugeSeries{series: makeSeries(name, labels), g: &Gauge{}}
	r.gauges[string(k)] = gs
	return gs.g
}

// Histogram returns (registering on first use) the histogram for
// name/labels with the given bucket upper bounds. Buckets are fixed at
// registration; later calls with different buckets return the existing
// histogram unchanged.
func (r *Registry) Histogram(name string, buckets []float64, labels ...string) *Histogram {
	if r == nil {
		return nil
	}
	var buf [keyBufSize]byte
	k := appendSeriesKey(buf[:0], name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if hs, ok := r.histories[string(k)]; ok {
		return hs.h
	}
	hs := &histogramSeries{series: makeSeries(name, labels), h: newHistogram(buckets)}
	r.histories[string(k)] = hs
	return hs.h
}

// LatencyHistogram is Histogram with the default latency buckets
// (seconds, 100µs…10s).
func (r *Registry) LatencyHistogram(name string, labels ...string) *Histogram {
	return r.Histogram(name, LatencyBuckets, labels...)
}

// snapshot takes the registry lock just long enough to copy the series
// lists; rendering happens outside the lock.
func (r *Registry) snapshot() (cs []*counterSeries, gs []*gaugeSeries, hs []*histogramSeries) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.snapshotLocked()
}

// snapshotSeries returns sorted copies of all series for rendering.
func (r *Registry) snapshotLocked() (cs []*counterSeries, gs []*gaugeSeries, hs []*histogramSeries) {
	for _, c := range r.counters {
		cs = append(cs, c)
	}
	for _, g := range r.gauges {
		gs = append(gs, g)
	}
	for _, h := range r.histories {
		hs = append(hs, h)
	}
	// Sort by (name, key) so every family is contiguous: the exposition
	// emits one TYPE header per family.
	sort.Slice(cs, func(i, j int) bool {
		if cs[i].name != cs[j].name {
			return cs[i].name < cs[j].name
		}
		return cs[i].key() < cs[j].key()
	})
	sort.Slice(gs, func(i, j int) bool {
		if gs[i].name != gs[j].name {
			return gs[i].name < gs[j].name
		}
		return gs[i].key() < gs[j].key()
	})
	sort.Slice(hs, func(i, j int) bool {
		if hs[i].name != hs[j].name {
			return hs[i].name < hs[j].name
		}
		return hs[i].key() < hs[j].key()
	})
	return cs, gs, hs
}
