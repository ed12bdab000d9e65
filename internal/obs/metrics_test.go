package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
)

// TestPrometheusGolden pins the full exposition byte-for-byte:
// families sorted by name, series sorted by label values, histograms
// with cumulative le buckets, integral counters without decimal
// points.
func TestPrometheusGolden(t *testing.T) {
	r := NewRegistry()
	req := r.CounterVec("test_requests_total", "Requests by route and code.", "route", "code")
	req.With("predict", "200").Add(2)
	req.With("predict", "400").Inc()
	req.With("models_put", "200").Inc()
	lat := r.HistogramVec("test_latency_seconds", "Latency by route.", []float64{0.001, 0.01, 0.1}, "route")
	lat.With("predict").Observe(0.0005)
	lat.With("predict").Observe(0.002)
	lat.With("predict").Observe(5)
	r.Gauge("test_inflight", "In-flight requests.").Set(3)
	r.Histogram("test_builds_seconds", "Builds.", []float64{1, 10}).Observe(1.5)

	var b strings.Builder
	if _, err := r.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP test_builds_seconds Builds.
# TYPE test_builds_seconds histogram
test_builds_seconds_bucket{le="1"} 0
test_builds_seconds_bucket{le="10"} 1
test_builds_seconds_bucket{le="+Inf"} 1
test_builds_seconds_sum 1.5
test_builds_seconds_count 1
# HELP test_inflight In-flight requests.
# TYPE test_inflight gauge
test_inflight 3
# HELP test_latency_seconds Latency by route.
# TYPE test_latency_seconds histogram
test_latency_seconds_bucket{route="predict",le="0.001"} 1
test_latency_seconds_bucket{route="predict",le="0.01"} 2
test_latency_seconds_bucket{route="predict",le="0.1"} 2
test_latency_seconds_bucket{route="predict",le="+Inf"} 3
test_latency_seconds_sum{route="predict"} 5.0025
test_latency_seconds_count{route="predict"} 3
# HELP test_requests_total Requests by route and code.
# TYPE test_requests_total counter
test_requests_total{route="models_put",code="200"} 1
test_requests_total{route="predict",code="200"} 2
test_requests_total{route="predict",code="400"} 1
`
	if b.String() != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", b.String(), want)
	}
}

func TestHistogramBoundaryAndCumulativeBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_h", "h", []float64{1, 2, 4})
	for _, v := range []float64{0.5, 1.5, 3, 100} {
		h.Observe(v)
	}
	if h.Count() != 4 {
		t.Fatalf("count = %d", h.Count())
	}
	// A value exactly on a bound lands in that bound's bucket (le is
	// inclusive in Prometheus).
	h2 := r.Histogram("test_h2", "h", []float64{1, 2})
	h2.Observe(1)
	var b strings.Builder
	if _, err := r.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`test_h_bucket{le="1"} 1`,
		`test_h_bucket{le="2"} 2`,
		`test_h_bucket{le="4"} 3`,
		`test_h_bucket{le="+Inf"} 4`,
		`test_h2_bucket{le="1"} 1`,
	} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("missing %q in:\n%s", want, b.String())
		}
	}
}

func TestHistogramQuantiles(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_q", "q", LogLinearBuckets(1e-6, 10, 3))
	if !math.IsNaN(h.Quantile(0.5)) {
		t.Error("empty histogram quantile should be NaN")
	}
	// 1000 observations uniform in (0, 1ms]: p50 ≈ 0.5ms within a
	// bucket's resolution.
	for i := 1; i <= 1000; i++ {
		h.Observe(float64(i) * 1e-6)
	}
	p50 := h.Quantile(0.50)
	if p50 < 3e-4 || p50 > 8e-4 {
		t.Errorf("p50 = %g, want ≈ 5e-4", p50)
	}
	p99 := h.Quantile(0.99)
	if p99 < 8e-4 || p99 > 1.3e-3 {
		t.Errorf("p99 = %g, want ≈ 1e-3", p99)
	}
	if q := h.Quantile(0.999999); q > 1.01e-3 {
		t.Errorf("extreme quantile escaped data range: %g", q)
	}
}

func TestLogLinearBuckets(t *testing.T) {
	b := LogLinearBuckets(1e-6, 1e-3, 1)
	if len(b) != 4 {
		t.Fatalf("buckets = %v", b)
	}
	for i, want := range []float64{1e-6, 1e-5, 1e-4, 1e-3} {
		if math.Abs(b[i]-want)/want > 1e-9 {
			t.Errorf("bucket %d = %g, want %g", i, b[i], want)
		}
	}
	if got := len(LogLinearBuckets(1e-6, 10, 3)); got != 22 {
		t.Errorf("3/decade over 7 decades = %d bounds, want 22", got)
	}
}

func TestCounterVecEach(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("test_c", "c", "route", "code")
	v.With("a", "200").Add(2)
	v.With("a", "500").Add(1)
	v.With("b", "200").Add(4)
	var total float64
	v.Each(func(labels []string, val float64) {
		if labels[0] == "a" {
			total += val
		}
	})
	if total != 3 {
		t.Errorf("sum over route=a = %g, want 3", total)
	}
}

// TestCounterRaiseTo: raising to a running total never lowers the
// counter, and syncs racing with stale totals settle on the largest.
func TestCounterRaiseTo(t *testing.T) {
	c := NewRegistry().Counter("test_raised_total", "r")
	c.RaiseTo(5)
	c.RaiseTo(3)
	if got := c.Value(); got != 5 {
		t.Fatalf("after RaiseTo(5), RaiseTo(3): %g, want 5", got)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for total := 0; total <= 1000; total++ {
				c.RaiseTo(float64(total - g))
			}
		}(g)
	}
	wg.Wait()
	if got := c.Value(); got != 1000 {
		t.Errorf("after concurrent raises to at most 1000: %g", got)
	}
}
