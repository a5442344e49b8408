package obsv

import "strings"

// Bucket is one cumulative histogram bucket in a Snapshot. LE is a
// string because the final bucket's bound is +Inf, which JSON numbers
// cannot represent.
type Bucket struct {
	// LE is the bucket's inclusive upper bound ("0.005", "+Inf").
	LE string `json:"le"`
	// Count is the cumulative observation count at or below LE.
	Count uint64 `json:"count"`
}

// Snapshot is the flat, JSON-friendly point-in-time view of one metric.
// Counters and gauges fill Value; histograms fill Count/Sum, the
// estimated quantiles, and the cumulative Buckets.
type Snapshot struct {
	// Type is "counter", "gauge", or "histogram".
	Type string `json:"type"`
	// Value is the counter or gauge reading (zero for histograms).
	Value float64 `json:"value,omitempty"`
	// Count is the histogram's total observation count.
	Count uint64 `json:"count,omitempty"`
	// Sum is the histogram's sum of observed values.
	Sum float64 `json:"sum,omitempty"`
	// P50 is the estimated median.
	P50 float64 `json:"p50,omitempty"`
	// P99 is the estimated 99th percentile.
	P99 float64 `json:"p99,omitempty"`
	// P999 is the estimated 99.9th percentile.
	P999 float64 `json:"p999,omitempty"`
	// Buckets are the cumulative histogram buckets, ending at +Inf.
	Buckets []Bucket `json:"buckets,omitempty"`
}

// TakeSnapshot returns the JSON view of every metric whose name starts
// with prefix (empty prefix = everything), keyed by metric name —
// vec children keyed as name{label="value"}.
func (r *Registry) TakeSnapshot(prefix string) map[string]Snapshot {
	all := make(map[string]Snapshot)
	for _, m := range r.metrics() {
		if prefix != "" && !strings.HasPrefix(m.name(), prefix) {
			continue
		}
		m.snap(all)
	}
	return all
}

// TakeSnapshot returns the Default registry's snapshot for prefix.
func TakeSnapshot(prefix string) map[string]Snapshot { return Default.TakeSnapshot(prefix) }
