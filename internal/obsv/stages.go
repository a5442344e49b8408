package obsv

// Per-request stage attribution: a Stages value rides a request's
// context through every layer it crosses (gateway → service → journal),
// each layer recording how long its own stages took. The service and
// gateway render the collected entries into the X-STGQ-Server-Timing
// response header (standard Server-Timing syntax), so a client can
// attribute end-to-end latency — gateway routing, backend engine time,
// journal enqueue/fsync/ack — instead of seeing one opaque number. See
// docs/operations.md ("Per-stage timing").

import (
	"context"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// ServerTimingHeader carries per-request stage durations on responses,
// in Server-Timing syntax: `name;dur=1.234` entries (dur in
// milliseconds), comma-separated, possibly across multiple header
// values (the gateway appends its own entries to the backend's). Stage
// names in this system: gw_route, gw_backend (gateway), svc_decode,
// svc_barrier, svc_engine, svc_encode (service), journal_enqueue,
// journal_fsync, journal_ack (durable write path).
const ServerTimingHeader = "X-STGQ-Server-Timing"

// StageEntry is one named stage duration collected by a Stages timer.
type StageEntry struct {
	// Name identifies the stage (e.g. "journal_fsync").
	Name string
	// Seconds is the stage's accumulated duration.
	Seconds float64
}

// Stages collects named stage durations for one request. All methods
// are safe for concurrent use and safe on a nil receiver (they no-op or
// return zero values), so instrumentation points never need to check
// whether attribution is enabled. Observing the same name twice
// accumulates (a retried backend round trip reports one total).
type Stages struct {
	mu      sync.Mutex
	names   []string // first-observation order
	seconds map[string]float64
}

// NewStages returns an empty stage collector.
func NewStages() *Stages {
	return &Stages{seconds: make(map[string]float64)}
}

// Add accumulates seconds into the named stage. Negative values are
// clamped to zero (a stage cannot un-spend time).
func (st *Stages) Add(name string, seconds float64) {
	if st == nil {
		return
	}
	if seconds < 0 {
		seconds = 0
	}
	st.mu.Lock()
	if _, ok := st.seconds[name]; !ok {
		st.names = append(st.names, name)
	}
	st.seconds[name] += seconds
	st.mu.Unlock()
}

// AddDuration is Add for a time.Duration.
func (st *Stages) AddDuration(name string, d time.Duration) {
	st.Add(name, d.Seconds())
}

// Time starts a stage timer; the returned stop function records the
// elapsed time under name. Usable on a nil receiver.
func (st *Stages) Time(name string) (stop func()) {
	t0 := time.Now()
	return func() { st.AddDuration(name, time.Since(t0)) }
}

// Sum returns the total seconds across every stage whose name starts
// with prefix ("" sums everything).
func (st *Stages) Sum(prefix string) float64 {
	if st == nil {
		return 0
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	var total float64
	for name, s := range st.seconds {
		if strings.HasPrefix(name, prefix) {
			total += s
		}
	}
	return total
}

// Entries returns the collected stages in first-observation order.
func (st *Stages) Entries() []StageEntry {
	if st == nil {
		return nil
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	out := make([]StageEntry, 0, len(st.names))
	for _, name := range st.names {
		out = append(out, StageEntry{Name: name, Seconds: st.seconds[name]})
	}
	return out
}

// HeaderValue renders the collected stages as one Server-Timing header
// value ("" when nothing was recorded): `name;dur=<ms>` entries joined
// by ", ", durations in milliseconds with microsecond precision.
func (st *Stages) HeaderValue() string {
	entries := st.Entries()
	if len(entries) == 0 {
		return ""
	}
	var b strings.Builder
	for i, e := range entries {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(e.Name)
		b.WriteString(";dur=")
		b.WriteString(strconv.FormatFloat(e.Seconds*1000, 'f', 3, 64))
	}
	return b.String()
}

// ParseServerTiming parses every Server-Timing header value in values
// into stage name → seconds, accumulating duplicates (the gateway
// appends its entries as a second header value). Entries without a
// dur parameter, and malformed durations, are skipped — a partially
// instrumented response still yields the stages it does carry.
func ParseServerTiming(values []string) map[string]float64 {
	out := make(map[string]float64)
	for _, v := range values {
		for _, item := range strings.Split(v, ",") {
			item = strings.TrimSpace(item)
			if item == "" {
				continue
			}
			parts := strings.Split(item, ";")
			name := strings.TrimSpace(parts[0])
			if name == "" {
				continue
			}
			for _, p := range parts[1:] {
				p = strings.TrimSpace(p)
				if !strings.HasPrefix(p, "dur=") {
					continue
				}
				ms, err := strconv.ParseFloat(strings.TrimPrefix(p, "dur="), 64)
				if err != nil || ms < 0 {
					continue
				}
				out[name] += ms / 1000
			}
		}
	}
	return out
}

// stagesKey is the context key WithStages stores a collector under.
type stagesKey struct{}

// WithStages returns a context carrying st, to be recovered by
// StagesFrom at any layer the request crosses in-process.
func WithStages(ctx context.Context, st *Stages) context.Context {
	return context.WithValue(ctx, stagesKey{}, st)
}

// StagesFrom returns the stage collector carried by ctx, or nil — and
// since every Stages method is nil-safe, callers record unconditionally.
func StagesFrom(ctx context.Context) *Stages {
	st, _ := ctx.Value(stagesKey{}).(*Stages)
	return st
}

// Summary condenses one histogram for status endpoints: the count and
// estimated quantiles without the full bucket vector.
type Summary struct {
	// Count is the total number of observations.
	Count uint64 `json:"count"`
	// P50Seconds is the estimated median, in seconds.
	P50Seconds float64 `json:"p50Seconds"`
	// P99Seconds is the estimated 99th percentile, in seconds.
	P99Seconds float64 `json:"p99Seconds"`
	// P999Seconds is the estimated 99.9th percentile, in seconds.
	P999Seconds float64 `json:"p999Seconds"`
}

// Summaries returns a Summary per child, keyed by label value, skipping
// children with no observations. The service and gateway status
// endpoints use it to expose per-stage timing without a /metrics scrape.
func (v *HistogramVec) Summaries() map[string]Summary {
	out := make(map[string]Summary)
	v.each(func(value string, h *Histogram) {
		n := h.Count()
		if n == 0 {
			return
		}
		out[value] = Summary{
			Count:       n,
			P50Seconds:  h.Quantile(0.50),
			P99Seconds:  h.Quantile(0.99),
			P999Seconds: h.Quantile(0.999),
		}
	})
	return out
}

// sortedCopy returns values sorted ascending (a helper for deterministic
// vec rendering).
func sortedCopy(values []string) []string {
	out := append([]string(nil), values...)
	sort.Strings(out)
	return out
}
