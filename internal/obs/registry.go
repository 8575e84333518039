package obs

import (
	"encoding/json"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Registry is a named metrics namespace: counters (monotonic int64),
// gauges (last-value float64), and histograms (fixed-bound buckets). It
// unifies the ad-hoc accounting scattered across mwu.Metrics, pool.Stats,
// faults.Stats and the fitness-cache counters: each of those structs
// exports itself into a Registry under a stable prefix, and the Registry
// serves one merged snapshot — as JSON, or via expvar next to the pprof
// endpoint (debug.go).
//
// All operations are safe for concurrent use; Counter/Gauge/Histogram
// handles are get-or-create and stable, so hot paths resolve them once
// and then touch only an atomic.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter is a monotonic int64 metric.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Set overwrites the counter — for mirroring an externally accumulated
// total (a cumulative cache-hit count) rather than re-counting it.
func (c *Counter) Set(n int64) { c.v.Store(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a last-value float64 metric.
type Gauge struct{ bits atomic.Uint64 }

// Set records the gauge value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the last recorded value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram counts observations into fixed upper-bound buckets (plus an
// implicit +Inf bucket) and tracks the running sum and count.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1; last is +Inf
	sum    atomic.Uint64  // float64 bits, CAS-accumulated
	n      atomic.Int64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.n.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.n.Load() }

// Sum returns the sum of observations.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// Buckets returns the upper bounds and the per-bucket counts (the last
// count is the +Inf bucket).
func (h *Histogram) Buckets() ([]float64, []int64) {
	counts := make([]int64, len(h.counts))
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
	}
	return append([]float64(nil), h.bounds...), counts
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
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
// upper bounds on first use (bounds are ignored on later calls; they must
// be sorted ascending).
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		b := append([]float64(nil), bounds...)
		h = &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
		r.hists[name] = h
	}
	return h
}

// histSnapshot is the serialized form of one histogram.
type histSnapshot struct {
	Count   int64     `json:"count"`
	Sum     float64   `json:"sum"`
	Bounds  []float64 `json:"bounds"`
	Buckets []int64   `json:"buckets"`
}

// snapshot is the serialized registry state.
type snapshot struct {
	Counters   map[string]int64        `json:"counters"`
	Gauges     map[string]float64      `json:"gauges"`
	Histograms map[string]histSnapshot `json:"histograms,omitempty"`
}

func (r *Registry) snap() snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := snapshot{
		Counters: make(map[string]int64, len(r.counters)),
		Gauges:   make(map[string]float64, len(r.gauges)),
	}
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	if len(r.hists) > 0 {
		s.Histograms = make(map[string]histSnapshot, len(r.hists))
		for name, h := range r.hists {
			bounds, counts := h.Buckets()
			s.Histograms[name] = histSnapshot{
				Count: h.Count(), Sum: h.Sum(), Bounds: bounds, Buckets: counts,
			}
		}
	}
	return s
}

// WriteJSON emits a point-in-time snapshot of the registry as indented
// JSON (map keys sort lexically, so output is stable for equal states).
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.snap())
}
