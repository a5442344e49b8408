// Package obsv is the cluster's dependency-free observability substrate:
// atomic counters and gauges, fixed-bucket latency histograms with
// p50/p99/p999 estimation, and a registry that renders everything in two
// forms — Prometheus text exposition (GET /metrics on stgqd and stgqgw)
// and a flat, JSON-friendly Snapshot that the daemons' GET /status
// summaries are built from.
//
// # Design
//
// Metrics are package-level vars in the subsystem that owns them
// (internal/journal, internal/replica, internal/service,
// internal/gateway, internal/core), registered on the Default registry
// at init. Registration is static, updates are lock-free atomics, and
// reads (exposition, snapshots, quantiles) are approximate point-in-time
// views — exact enough for operations, cheap enough for hot paths.
//
// Every update path is safe for concurrent use; histograms tolerate
// torn reads across buckets (a scrape racing an Observe may be off by
// the in-flight observation, never corrupt).
//
// # Naming
//
// Prometheus conventions: `stgq_<subsystem>_<what>_<unit>` with
// `_total` for counters, `_seconds` for latency histograms. The full
// metric reference lives in docs/operations.md.
package obsv

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// metric is the common behaviour the registry needs from every metric
// kind: a stable identity plus the two render forms.
type metric interface {
	name() string
	snap(into map[string]Snapshot)
	prom(appendLine func(line string), writeHeader func(name, typ, help string))
}

// Registry holds an ordered set of metrics. Use Default unless a test
// needs isolation.
type Registry struct {
	mu sync.Mutex
	ms []metric
	nm map[string]metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{nm: make(map[string]metric)}
}

// Default is the process-wide registry every subsystem registers its
// metrics on; both daemons expose it at GET /metrics.
var Default = NewRegistry()

// register adds m, panicking on a duplicate or invalid name: metrics
// are static package vars, so either is a programming error caught at
// init.
func (r *Registry) register(m metric) {
	if !validMetricName(m.name()) {
		panic("obsv: invalid metric name " + m.name())
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.nm[m.name()]; dup {
		panic("obsv: duplicate metric " + m.name())
	}
	r.nm[m.name()] = m
	r.ms = append(r.ms, m)
}

// validMetricName reports whether name is a legal Prometheus metric
// name: [a-zA-Z_:][a-zA-Z0-9_:]*. An illegal name would make the whole
// /metrics exposition unscrapable, so registration refuses it outright.
func validMetricName(name string) bool {
	if name == "" {
		return false
	}
	for i, c := range name {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// metrics returns a stable copy of the registration order.
func (r *Registry) metrics() []metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]metric(nil), r.ms...)
}

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	nm, hp string
	v      atomic.Uint64
}

// NewCounter registers a counter on Default.
func NewCounter(name, help string) *Counter { return Default.NewCounter(name, help) }

// NewCounter registers a counter on r.
func (r *Registry) NewCounter(name, help string) *Counter {
	c := &Counter{nm: name, hp: help}
	r.register(c)
	return c
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

func (c *Counter) name() string { return c.nm }

func (c *Counter) snap(into map[string]Snapshot) {
	into[c.nm] = Snapshot{Type: "counter", Value: float64(c.v.Load())}
}

func (c *Counter) prom(line func(string), header func(name, typ, help string)) {
	header(c.nm, "counter", c.hp)
	line(fmt.Sprintf("%s %d", c.nm, c.v.Load()))
}

// Gauge is an atomically settable float64 value.
type Gauge struct {
	nm, hp string
	bits   atomic.Uint64
}

// NewGauge registers a gauge on Default.
func NewGauge(name, help string) *Gauge { return Default.NewGauge(name, help) }

// NewGauge registers a gauge on r.
func (r *Registry) NewGauge(name, help string) *Gauge {
	g := &Gauge{nm: name, hp: help}
	r.register(g)
	return g
}

// Set replaces the gauge's value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

func (g *Gauge) name() string { return g.nm }

func (g *Gauge) snap(into map[string]Snapshot) {
	into[g.nm] = Snapshot{Type: "gauge", Value: g.Value()}
}

func (g *Gauge) prom(line func(string), header func(name, typ, help string)) {
	header(g.nm, "gauge", g.hp)
	line(fmt.Sprintf("%s %s", g.nm, formatFloat(g.Value())))
}

// LatencyBuckets are the default histogram bounds for durations in
// seconds: 5µs to 10s, roughly logarithmic — wide enough for an fsync
// on fast NVMe and a pathological 10s query alike.
var LatencyBuckets = []float64{
	5e-6, 1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
	1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// SizeBuckets are histogram bounds for counts (batch sizes, record
// counts): powers of two up to 4096.
var SizeBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096}

// Histogram is a fixed-bucket histogram with an atomic count per bucket
// plus a running sum and total count; quantiles are estimated by linear
// interpolation inside the owning bucket.
type Histogram struct {
	nm, hp  string
	bounds  []float64 // ascending upper bounds; an implicit +Inf bucket follows
	counts  []atomic.Uint64
	total   atomic.Uint64
	sumBits atomic.Uint64 // float64 bits, CAS-accumulated
}

// NewHistogram registers a histogram on Default. bounds must be sorted
// ascending; nil means LatencyBuckets.
func NewHistogram(name, help string, bounds []float64) *Histogram {
	return Default.NewHistogram(name, help, bounds)
}

// NewHistogram registers a histogram on r (see the package-level
// NewHistogram).
func (r *Registry) NewHistogram(name, help string, bounds []float64) *Histogram {
	if bounds == nil {
		bounds = LatencyBuckets
	}
	h := &Histogram{
		nm:     name,
		hp:     help,
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Uint64, len(bounds)+1),
	}
	r.register(h)
	return h
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i].Add(1)
	h.total.Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// ObserveSince records the seconds elapsed since t0.
func (h *Histogram) ObserveSince(t0 time.Time) { h.Observe(time.Since(t0).Seconds()) }

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 { return h.total.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Quantile estimates the q-quantile (0 < q < 1) from the bucket counts:
// linear interpolation inside the bucket holding the target rank. The
// overflow (+Inf) bucket reports the largest finite bound — the estimate
// saturates rather than invents values past the instrumented range.
// With a single observation the sum IS the exact value, so the estimate
// is clamped to it: interpolation alone would report e.g. p50=3.75ms
// for one observed 2.75ms sample. Returns 0 when nothing has been
// observed.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.total.Load()
	if total == 0 {
		return 0
	}
	est := h.quantileInterpolated(q, total)
	if total == 1 {
		// One sample: the exact value is known (the sum). Bucket
		// interpolation must never report more than was observed.
		if s := h.Sum(); s < est {
			est = s
		}
	}
	return est
}

// quantileInterpolated is the raw bucket-interpolation estimate for the
// given total (callers pass a loaded total so the count/clamp pair is
// consistent).
func (h *Histogram) quantileInterpolated(q float64, total uint64) float64 {
	rank := q * float64(total)
	var cum uint64
	for i := range h.counts {
		n := h.counts[i].Load()
		if n == 0 {
			cum += n
			continue
		}
		if float64(cum+n) >= rank {
			if i == len(h.bounds) {
				return h.bounds[len(h.bounds)-1] // overflow bucket: saturate
			}
			lo := 0.0
			if i > 0 {
				lo = h.bounds[i-1]
			}
			hi := h.bounds[i]
			frac := (rank - float64(cum)) / float64(n)
			if frac < 0 {
				frac = 0
			} else if frac > 1 {
				frac = 1
			}
			return lo + (hi-lo)*frac
		}
		cum += n
	}
	return h.bounds[len(h.bounds)-1]
}

func (h *Histogram) name() string { return h.nm }

func (h *Histogram) snap(into map[string]Snapshot) {
	into[h.nm] = h.snapshot()
}

// snapshot builds the JSON view of one histogram.
func (h *Histogram) snapshot() Snapshot {
	s := Snapshot{
		Type:  "histogram",
		Count: h.total.Load(),
		Sum:   h.Sum(),
		P50:   h.Quantile(0.50),
		P99:   h.Quantile(0.99),
		P999:  h.Quantile(0.999),
	}
	var cum uint64
	for i := range h.counts {
		cum += h.counts[i].Load()
		le := "+Inf"
		if i < len(h.bounds) {
			le = formatFloat(h.bounds[i])
		}
		s.Buckets = append(s.Buckets, Bucket{LE: le, Count: cum})
	}
	return s
}

func (h *Histogram) prom(line func(string), header func(name, typ, help string)) {
	header(h.nm, "histogram", h.hp)
	h.promSeries(line, "")
}

// promSeries renders the _bucket/_sum/_count series, with extraLabels
// (e.g. `backend="..."`) spliced into every label set.
func (h *Histogram) promSeries(line func(string), extraLabels string) {
	sep := ""
	if extraLabels != "" {
		sep = ","
	}
	var cum uint64
	for i := range h.counts {
		cum += h.counts[i].Load()
		le := "+Inf"
		if i < len(h.bounds) {
			le = formatFloat(h.bounds[i])
		}
		line(fmt.Sprintf(`%s_bucket{%s%sle=%q} %d`, h.nm, extraLabels, sep, le, cum))
	}
	suffix := ""
	if extraLabels != "" {
		suffix = "{" + extraLabels + "}"
	}
	line(fmt.Sprintf("%s_sum%s %s", h.nm, suffix, formatFloat(h.Sum())))
	line(fmt.Sprintf("%s_count%s %d", h.nm, suffix, h.total.Load()))
}
