package obsv

import (
	"bufio"
	"encoding/json"
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("test_total", "a counter")
	g := r.NewGauge("test_gauge", "a gauge")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	g.Set(2.5)
	if got := g.Value(); got != 2.5 {
		t.Fatalf("gauge = %v, want 2.5", got)
	}
}

func TestDuplicateNamePanics(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("dup_total", "")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on duplicate metric name")
		}
	}()
	r.NewGauge("dup_total", "")
}

func TestHistogramQuantiles(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("lat_seconds", "", []float64{0.001, 0.01, 0.1, 1})
	// 100 observations spread evenly within the 0.001–0.01 bucket.
	for i := 0; i < 100; i++ {
		h.Observe(0.005)
	}
	if h.Count() != 100 {
		t.Fatalf("count = %d, want 100", h.Count())
	}
	p50 := h.Quantile(0.5)
	if p50 < 0.001 || p50 > 0.01 {
		t.Fatalf("p50 = %v, want within (0.001, 0.01]", p50)
	}
	// One huge outlier lands in the overflow bucket; p999 saturates at
	// the largest finite bound rather than inventing values.
	h.Observe(100)
	if got := h.Quantile(0.9999); got != 1 {
		t.Fatalf("overflow quantile = %v, want saturation at 1", got)
	}
	if math.Abs(h.Sum()-(100*0.005+100)) > 1e-9 {
		t.Fatalf("sum = %v, want %v", h.Sum(), 100*0.005+100)
	}
}

func TestHistogramEmptyQuantile(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("empty_seconds", "", nil)
	if got := h.Quantile(0.99); got != 0 {
		t.Fatalf("empty quantile = %v, want 0", got)
	}
}

// TestConcurrentUpdates hammers every metric kind from many goroutines;
// its value is under -race (make race), where any unsynchronized access
// in the hot paths fails the build.
func TestConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("conc_total", "")
	g := r.NewGauge("conc_gauge", "")
	h := r.NewHistogram("conc_seconds", "", nil)
	cv := r.NewCounterVec("conc_vec_total", "", "kind")
	hv := r.NewHistogramVec("conc_vec_seconds", "", "kind", nil)

	const workers, iters = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			kind := []string{"a", "b", "c"}[w%3]
			for i := 0; i < iters; i++ {
				c.Inc()
				g.Set(float64(i))
				h.Observe(float64(i) * 1e-5)
				cv.With(kind).Inc()
				hv.With(kind).Observe(float64(i) * 1e-5)
				if i%100 == 0 {
					// Concurrent reads must be safe too.
					_ = h.Quantile(0.99)
					_ = r.TakeSnapshot("")
				}
			}
		}(w)
	}
	wg.Wait()

	if got := c.Value(); got != workers*iters {
		t.Fatalf("counter = %d, want %d", got, workers*iters)
	}
	if got := h.Count(); got != workers*iters {
		t.Fatalf("histogram count = %d, want %d", got, workers*iters)
	}
	var vecTotal uint64
	cv.each(func(_ string, child *Counter) { vecTotal += child.Value() })
	if vecTotal != workers*iters {
		t.Fatalf("counter vec total = %d, want %d", vecTotal, workers*iters)
	}
}

func TestPrometheusExposition(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("expo_total", "things done")
	h := r.NewHistogram("expo_seconds", "how long", []float64{0.01, 0.1})
	v := r.NewCounterVec("expo_vec_total", "by kind", "kind")
	c.Add(3)
	h.Observe(0.05)
	v.With("x").Inc()

	var sb strings.Builder
	bw := bufio.NewWriter(&sb)
	r.WritePrometheus(bw)
	bw.Flush()
	out := sb.String()

	for _, want := range []string{
		"# HELP expo_total things done",
		"# TYPE expo_total counter",
		"expo_total 3",
		"# TYPE expo_seconds histogram",
		`expo_seconds_bucket{le="0.01"} 0`,
		`expo_seconds_bucket{le="0.1"} 1`,
		`expo_seconds_bucket{le="+Inf"} 1`,
		"expo_seconds_sum 0.05",
		"expo_seconds_count 1",
		`expo_vec_total{kind="x"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q in:\n%s", want, out)
		}
	}

	rec := httptest.NewRecorder()
	Handler(r).ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type = %q", ct)
	}
	if rec.Body.String() != out {
		t.Fatal("handler body differs from WritePrometheus output")
	}
}

func TestSnapshotAndPrefix(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("app_a_total", "").Inc()
	r.NewCounter("other_total", "").Inc()
	h := r.NewHistogram("app_lat_seconds", "", []float64{1})
	h.Observe(0.5)

	snap := r.TakeSnapshot("app_")
	if _, ok := snap["other_total"]; ok {
		t.Fatal("prefix filter leaked other_total")
	}
	if snap["app_a_total"].Value != 1 {
		t.Fatalf("app_a_total = %+v", snap["app_a_total"])
	}
	hs := snap["app_lat_seconds"]
	if hs.Count != 1 || len(hs.Buckets) != 2 || hs.Buckets[1].LE != "+Inf" {
		t.Fatalf("histogram snapshot = %+v", hs)
	}
	// Snapshots must round-trip through JSON (the /status contract).
	if _, err := json.Marshal(snap); err != nil {
		t.Fatalf("snapshot marshal: %v", err)
	}
}
