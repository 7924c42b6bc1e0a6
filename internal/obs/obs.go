// Package obs is Risotto-Go's observability layer: a zero-dependency
// metrics registry (counters, gauges, fixed-bucket histograms) plus a
// structured trace-event layer (ring-buffered spans carrying phase, CPU,
// guest/host PC and duration) that every stage of the DBT pipeline
// reports into — frontend decode, TCG optimization, backend emission,
// code-cache management, machine scheduling, syscall and host-call
// dispatch, fault injection, and litmus enumeration.
//
// The paper's evaluation (Figs. 12–15) is an exercise in counting and
// attributing fences, CAS translations and code-cache behaviour; this
// package makes those quantities first-class instead of ad-hoc struct
// fields and fmt prints. A single *Scope is threaded through
// core.Runtime, machine.Machine, litmus enumeration options and
// faults.Injector, so the whole stack reports into one registry and one
// trace stream.
//
// Everything is safe for concurrent use and nil-safe: a nil *Scope (and
// the nil metric handles it returns) turns every instrumentation call
// into a no-op, so un-instrumented hot paths pay only a nil check.
package obs

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// --- Metric primitives -------------------------------------------------------

// Counter is a monotonic uint64 metric. The zero value is ready to use; a
// nil *Counter is a no-op, so handles from a nil Scope can be used
// unconditionally.
type Counter struct {
	v atomic.Uint64
}

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Load returns the current value; 0 on a nil counter.
func (c *Counter) Load() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a set-to-current-value int64 metric.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add adjusts the gauge by d.
func (g *Gauge) Add(d int64) {
	if g == nil {
		return
	}
	g.v.Add(d)
}

// Load returns the current value; 0 on a nil gauge.
func (g *Gauge) Load() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a fixed-layout bucketed distribution. Bounds are ascending
// upper bounds; a sample lands in the first bucket whose bound is >= the
// sample, or in the implicit overflow bucket past the last bound, so
// there are len(bounds)+1 buckets in total.
type Histogram struct {
	bounds []uint64
	counts []atomic.Uint64 // len(bounds)+1
	sum    atomic.Uint64
	count  atomic.Uint64
}

// newHistogram copies bounds (defensively) and allocates the buckets.
func newHistogram(bounds []uint64) *Histogram {
	b := make([]uint64, len(bounds))
	copy(b, bounds)
	return &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b)+1)}
}

// Observe records one sample.
func (h *Histogram) Observe(v uint64) {
	if h == nil {
		return
	}
	// Binary search for the first bound >= v.
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if h.bounds[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	h.counts[lo].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
}

// Count returns the number of observed samples.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// snapshot captures the histogram's current state.
func (h *Histogram) snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds: append([]uint64(nil), h.bounds...),
		Counts: make([]uint64, len(h.counts)),
		Count:  h.count.Load(),
		Sum:    h.sum.Load(),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

// Standard bucket layouts. Fixed layouts keep output shape stable across
// runs and make snapshots directly comparable.
var (
	// DurationBuckets covers span durations in nanoseconds, ~×4 steps
	// from 1µs to 4s plus overflow.
	DurationBuckets = []uint64{
		1_000, 4_000, 16_000, 64_000, 256_000,
		1_000_000, 4_000_000, 16_000_000, 64_000_000, 256_000_000,
		1_000_000_000, 4_000_000_000,
	}
	// SizeBuckets covers byte sizes (code-cache blocks), powers of four
	// from 16 B to 1 MiB plus overflow.
	SizeBuckets = []uint64{16, 64, 256, 1 << 10, 4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20}
)

// --- Registry ----------------------------------------------------------------

// Registry holds named metrics. Lookup is mutex-guarded get-or-create;
// hot paths should fetch a handle once and keep it.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use. Nil-safe.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use. Nil-safe.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given
// bucket bounds on first use (later calls reuse the existing layout).
// Nil-safe.
func (r *Registry) Histogram(name string, bounds []uint64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = newHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// --- Snapshot ----------------------------------------------------------------

// HistogramSnapshot is one histogram's frozen state. Counts has
// len(Bounds)+1 entries; the last is the overflow bucket.
type HistogramSnapshot struct {
	Bounds []uint64 `json:"bounds"`
	Counts []uint64 `json:"counts"`
	Count  uint64   `json:"count"`
	Sum    uint64   `json:"sum"`
}

// SpanStats summarizes the trace stream: how many spans were recorded in
// total, how many the ring has since overwritten, and the per-phase
// totals (which survive wraparound).
type SpanStats struct {
	Total   uint64            `json:"total"`
	Dropped uint64            `json:"dropped"`
	ByPhase map[string]uint64 `json:"by_phase"`
}

// Snapshot is a frozen, renderable view of a registry plus its trace
// summary — the programmatic form behind -metrics and the /metrics and
// /debug/obs endpoints.
type Snapshot struct {
	Counters   map[string]uint64            `json:"counters"`
	Gauges     map[string]int64             `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
	Spans      SpanStats                    `json:"spans"`
}

// Snapshot freezes the registry. Metrics created after the call are not
// included. Nil-safe: a nil registry yields empty (non-nil) maps.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   make(map[string]uint64),
		Gauges:     make(map[string]int64),
		Histograms: make(map[string]HistogramSnapshot),
		Spans:      SpanStats{ByPhase: make(map[string]uint64)},
	}
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, c := range r.counters {
		s.Counters[name] = c.Load()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Load()
	}
	for name, h := range r.hists {
		s.Histograms[name] = h.snapshot()
	}
	return s
}

// MetricNames returns every metric name in the snapshot, sorted, with a
// kind prefix ("counter:", "gauge:", "histogram:") — the stable "shape"
// of a snapshot, used by golden tests.
func (s Snapshot) MetricNames() []string {
	var out []string
	for n := range s.Counters {
		out = append(out, "counter:"+n)
	}
	for n := range s.Gauges {
		out = append(out, "gauge:"+n)
	}
	for n := range s.Histograms {
		out = append(out, "histogram:"+n)
	}
	sort.Strings(out)
	return out
}

// Counter returns a counter's value from the snapshot (0 when absent).
func (s Snapshot) Counter(name string) uint64 { return s.Counters[name] }

// String renders a terse one-line summary.
func (s Snapshot) String() string {
	return fmt.Sprintf("obs.Snapshot{%d counters, %d gauges, %d histograms, %d spans}",
		len(s.Counters), len(s.Gauges), len(s.Histograms), s.Spans.Total)
}
