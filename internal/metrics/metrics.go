// Package metrics provides the lightweight instrumentation used across the
// engine and the benchmark harness: atomic counters, log-bucketed latency
// histograms, windowed rate meters, per-category CPU-time breakdowns, and
// the α-weighted input-rate smoother from the paper's statistics monitoring
// module (§4: λ(t) = α·λ(t-1) + (1-α)·N(t)).
package metrics

import (
	"fmt"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an atomically updated instantaneous value.
type Gauge struct{ v atomic.Int64 }

// Set stores the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Value returns the stored value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram records int64 observations (typically nanoseconds) in
// logarithmic buckets: 64 powers-of-two, each split into 8 linear
// sub-buckets, giving ~12% relative resolution across the full range.
// All methods are safe for concurrent use.
type Histogram struct {
	buckets [64 * 8]atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64
	max     atomic.Int64
}

func bucketIndex(v int64) int {
	if v < 0 {
		v = 0
	}
	if v < 16 {
		return int(v) // 16 exact buckets for small values
	}
	hi := bits.Len64(uint64(v)) - 1 // highest set bit, >= 4 here
	sub := (v >> uint(hi-3)) & 7    // 3 bits below the top bit
	return 16 + (hi-4)*8 + int(sub)
}

// bucketLow returns the lower bound of bucket i (inverse of bucketIndex).
func bucketLow(i int) int64 {
	if i < 16 {
		return int64(i)
	}
	hi := (i-16)/8 + 4
	sub := int64((i - 16) % 8)
	return (8 + sub) << uint(hi-3)
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.buckets[bucketIndex(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		m := h.max.Load()
		if v <= m || h.max.CompareAndSwap(m, v) {
			break
		}
	}
}

// Merge folds every observation recorded in o into h. Both histograms use
// the same fixed bucket layout, so merging is a bucket-wise add and the
// merged quantiles are exactly what a single histogram fed both streams
// would report. Safe for concurrent use on both sides, though a merge
// racing Observe on o may miss the in-flight observation.
func (h *Histogram) Merge(o *Histogram) {
	if o == nil {
		return
	}
	for i := range o.buckets {
		if n := o.buckets[i].Load(); n != 0 {
			h.buckets[i].Add(n)
		}
	}
	h.count.Add(o.count.Load())
	h.sum.Add(o.sum.Load())
	om := o.max.Load()
	for {
		m := h.max.Load()
		if om <= m || h.max.CompareAndSwap(m, om) {
			break
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observations.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// Mean returns the average observation, or 0 with no data.
func (h *Histogram) Mean() float64 {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return float64(h.sum.Load()) / float64(n)
}

// Max returns the largest observation.
func (h *Histogram) Max() int64 { return h.max.Load() }

// Quantile returns an approximation of the q-quantile (0 <= q <= 1), or 0
// with no data. The result is the lower bound of the bucket containing the
// quantile, so it is within one bucket width (~12%) of the true value.
func (h *Histogram) Quantile(q float64) int64 {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	rank := int64(q * float64(n-1))
	var seen int64
	for i := range h.buckets {
		seen += h.buckets[i].Load()
		if seen > rank {
			return bucketLow(i)
		}
	}
	return h.max.Load()
}

// Snapshot summarises the histogram.
type Snapshot struct {
	Count         int64
	Sum           int64
	Mean          float64
	P50, P95, P99 int64
	Max           int64
}

// Snapshot returns a consistent-enough summary for reporting. Count and sum
// are loaded once and the mean is derived from that same pair, so the
// reported mean can never be torn by a concurrent Observe landing between
// the two loads.
func (h *Histogram) Snapshot() Snapshot {
	n := h.count.Load()
	sum := h.sum.Load()
	mean := 0.0
	if n > 0 {
		mean = float64(sum) / float64(n)
	}
	return Snapshot{
		Count: n,
		Sum:   sum,
		Mean:  mean,
		P50:   h.Quantile(0.50),
		P95:   h.Quantile(0.95),
		P99:   h.Quantile(0.99),
		Max:   h.Max(),
	}
}

func (s Snapshot) String() string {
	return fmt.Sprintf("n=%d mean=%.0f p50=%d p95=%d p99=%d max=%d", s.Count, s.Mean, s.P50, s.P95, s.P99, s.Max)
}

// EWMA implements the paper's α-weighted input-rate smoother:
// λ(t) = α·λ(t-1) + (1-α)·N(t), where N(t) is the raw per-interval count.
// Not safe for concurrent use; each monitor owns one.
type EWMA struct {
	alpha   float64
	value   float64
	started bool
}

// NewEWMA returns a smoother with the given α in [0, 1). A larger α weights
// history more, suppressing noise and outliers at the cost of lag.
func NewEWMA(alpha float64) *EWMA {
	if alpha < 0 || alpha >= 1 {
		panic(fmt.Sprintf("metrics: EWMA alpha %g out of [0,1)", alpha))
	}
	return &EWMA{alpha: alpha}
}

// Update feeds one raw sample and returns the smoothed value. The first
// sample initialises the series.
func (e *EWMA) Update(sample float64) float64 {
	if !e.started {
		e.value, e.started = sample, true
	} else {
		e.value = e.alpha*e.value + (1-e.alpha)*sample
	}
	return e.value
}

// Value returns the current smoothed value.
func (e *EWMA) Value() float64 { return e.value }

// Family is a name-keyed collection of metric primitives: the registration
// layer beneath the engine's observability registry. Names are hierarchical
// dot-separated paths ("worker.3.rdma.ring_occupancy"). Get-or-create
// accessors are safe for concurrent use and idempotent, so independent
// subsystems can register the same name and share the underlying metric.
// A name is bound to the first kind that registered it; registering it
// again as a different kind panics (a programming error worth failing
// loudly on).
type Family struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	kinds    map[string]string
}

// NewFamily returns an empty family.
func NewFamily() *Family {
	return &Family{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
		kinds:    map[string]string{},
	}
}

func (f *Family) claim(name, kind string) {
	if prev, taken := f.kinds[name]; taken && prev != kind {
		panic(fmt.Sprintf("metrics: %q already registered as a %s, not a %s", name, prev, kind))
	}
	f.kinds[name] = kind
}

// Counter returns the counter registered under name, creating it if needed.
func (f *Family) Counter(name string) *Counter {
	f.mu.RLock()
	c, ok := f.counters[name]
	f.mu.RUnlock()
	if ok {
		return c
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok := f.counters[name]; ok {
		return c
	}
	f.claim(name, "counter")
	c = &Counter{}
	f.counters[name] = c
	return c
}

// Gauge returns the gauge registered under name, creating it if needed.
func (f *Family) Gauge(name string) *Gauge {
	f.mu.RLock()
	g, ok := f.gauges[name]
	f.mu.RUnlock()
	if ok {
		return g
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if g, ok := f.gauges[name]; ok {
		return g
	}
	f.claim(name, "gauge")
	g = &Gauge{}
	f.gauges[name] = g
	return g
}

// Histogram returns the histogram registered under name, creating it if
// needed.
func (f *Family) Histogram(name string) *Histogram {
	f.mu.RLock()
	h, ok := f.hists[name]
	f.mu.RUnlock()
	if ok {
		return h
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if h, ok := f.hists[name]; ok {
		return h
	}
	f.claim(name, "histogram")
	h = &Histogram{}
	f.hists[name] = h
	return h
}

// EachCounter calls fn for every registered counter, in sorted name order.
func (f *Family) EachCounter(fn func(name string, c *Counter)) {
	f.mu.RLock()
	names := sortedKeys(f.counters)
	f.mu.RUnlock()
	for _, n := range names {
		f.mu.RLock()
		c := f.counters[n]
		f.mu.RUnlock()
		fn(n, c)
	}
}

// EachGauge calls fn for every registered gauge, in sorted name order.
func (f *Family) EachGauge(fn func(name string, g *Gauge)) {
	f.mu.RLock()
	names := sortedKeys(f.gauges)
	f.mu.RUnlock()
	for _, n := range names {
		f.mu.RLock()
		g := f.gauges[n]
		f.mu.RUnlock()
		fn(n, g)
	}
}

// EachHistogram calls fn for every registered histogram, in sorted name
// order.
func (f *Family) EachHistogram(fn func(name string, h *Histogram)) {
	f.mu.RLock()
	names := sortedKeys(f.hists)
	f.mu.RUnlock()
	for _, n := range names {
		f.mu.RLock()
		h := f.hists[n]
		f.mu.RUnlock()
		fn(n, h)
	}
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
