package obsv

import (
	"context"
	"math"
	"strings"
	"testing"
	"time"
)

func TestStagesNilSafety(t *testing.T) {
	var st *Stages
	st.Add("x", 1)
	st.AddDuration("x", time.Second)
	st.Time("x")()
	if st.Sum("") != 0 || st.Entries() != nil || st.HeaderValue() != "" {
		t.Fatal("nil Stages must behave as empty")
	}
	if got := StagesFrom(context.Background()); got != nil {
		t.Fatalf("StagesFrom(empty ctx) = %v, want nil", got)
	}
}

func TestStagesAccumulateAndOrder(t *testing.T) {
	st := NewStages()
	st.Add("b", 0.002)
	st.Add("a", 0.001)
	st.Add("b", 0.003) // accumulates, keeps first-observation order
	st.Add("neg", -5)  // clamped to zero
	entries := st.Entries()
	if len(entries) != 3 || entries[0].Name != "b" || entries[1].Name != "a" {
		t.Fatalf("entries = %+v", entries)
	}
	if math.Abs(entries[0].Seconds-0.005) > 1e-12 {
		t.Fatalf("b = %v, want 0.005", entries[0].Seconds)
	}
	if got := st.Sum(""); math.Abs(got-0.006) > 1e-12 {
		t.Fatalf("Sum() = %v, want 0.006", got)
	}
	if got := st.Sum("b"); math.Abs(got-0.005) > 1e-12 {
		t.Fatalf("Sum(b) = %v, want 0.005", got)
	}
}

func TestStagesHeaderRoundTrip(t *testing.T) {
	st := NewStages()
	st.Add("svc_engine", 0.0042)
	st.Add("journal_fsync", 0.000125)
	hv := st.HeaderValue()
	if !strings.Contains(hv, "svc_engine;dur=4.200") {
		t.Fatalf("header value = %q", hv)
	}
	parsed := ParseServerTiming([]string{hv})
	if math.Abs(parsed["svc_engine"]-0.0042) > 1e-6 {
		t.Fatalf("parsed svc_engine = %v", parsed["svc_engine"])
	}
	if math.Abs(parsed["journal_fsync"]-0.000125) > 1e-6 {
		t.Fatalf("parsed journal_fsync = %v", parsed["journal_fsync"])
	}
}

func TestParseServerTimingMergesAndSkipsMalformed(t *testing.T) {
	parsed := ParseServerTiming([]string{
		"gw_route;dur=1.5, gw_backend;dur=10",
		"gw_backend;dur=2.5",          // second header value accumulates
		"noDur, bad;dur=oops, ;dur=1", // all skipped
	})
	if len(parsed) != 2 {
		t.Fatalf("parsed = %v, want 2 entries", parsed)
	}
	if math.Abs(parsed["gw_backend"]-0.0125) > 1e-9 {
		t.Fatalf("gw_backend = %v, want 0.0125", parsed["gw_backend"])
	}
}

func TestStagesContext(t *testing.T) {
	st := NewStages()
	ctx := WithStages(context.Background(), st)
	StagesFrom(ctx).Add("x", 0.5)
	if got := st.Sum("x"); got != 0.5 {
		t.Fatalf("via ctx = %v, want 0.5", got)
	}
}

// TestQuantileClamp is the regression table for the low-count estimation
// bug: the journal histogram showed p50=0.00375s for a single 0.00275s
// observation — a quantile estimate must never exceed the observed sum
// when count==1.
func TestQuantileClamp(t *testing.T) {
	bounds := []float64{0.001, 0.0025, 0.005, 0.01}
	cases := []struct {
		name    string
		observe []float64
		q       float64
		want    float64
	}{
		{"empty", nil, 0.5, 0},
		{"single sample mid-bucket", []float64{0.00275}, 0.5, 0.00275},
		{"single sample p99", []float64{0.00275}, 0.99, 0.00275},
		{"single sample below interpolation", []float64{0.0049}, 0.5, 0.00375},
		{"single sample overflow bucket", []float64{42}, 0.5, 0.01},
		{"single sample first bucket", []float64{0.0004}, 0.5, 0.0004},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := NewRegistry()
			h := r.NewHistogram("clamp_seconds", "", bounds)
			for _, v := range tc.observe {
				h.Observe(v)
			}
			got := h.Quantile(tc.q)
			if math.Abs(got-tc.want) > 1e-12 {
				t.Fatalf("Quantile(%v) = %v, want %v", tc.q, got, tc.want)
			}
			if h.Count() == 1 && got > h.Sum() {
				t.Fatalf("estimate %v exceeds observed sum %v at count 1", got, h.Sum())
			}
		})
	}
}

func TestSummaries(t *testing.T) {
	r := NewRegistry()
	v := r.NewHistogramVec("summ_seconds", "", "stage", []float64{0.001, 0.01, 0.1})
	v.With("fast").Observe(0.0005)
	v.With("empty") // created but never observed: omitted
	s := v.Summaries()
	if len(s) != 1 {
		t.Fatalf("summaries = %v, want only the populated child", s)
	}
	fast := s["fast"]
	if fast.Count != 1 || fast.P50Seconds != 0.0005 {
		t.Fatalf("fast summary = %+v", fast)
	}
}
