package observe

import (
	"context"
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterBasics(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("test_total", "help")
	c.Inc()
	c.Add(2.5)
	if got := c.Value(); got != 3.5 {
		t.Fatalf("counter = %v, want 3.5", got)
	}
	if again := reg.Counter("test_total", "help"); again != c {
		t.Fatal("re-registration should return the same counter")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("negative Add should panic")
		}
	}()
	c.Add(-1)
}

// TestNilRegistry pins the optional-metrics contract: a nil registry
// hands out working instruments that no scrape sees, its func-backed
// families do nothing, and a span bound to it records no sample anywhere.
func TestNilRegistry(t *testing.T) {
	var reg *Registry
	c := reg.Counter("nil_total", "h")
	c.Add(2)
	reg.CounterVec("nil_vec_total", "h", "k").With("a").Inc()
	g := reg.Gauge("nil_gauge", "h")
	g.Set(4)
	gv := reg.GaugeVec("nil_gauge_vec", "h", "k").With("a")
	gv.Add(1.5)
	h := reg.Histogram("nil_seconds", "h", nil)
	h.Observe(0.1)
	hv := reg.HistogramVec("nil_vec_seconds", "h", nil, "k").With("a")
	hv.Observe(0.2)
	hv.Observe(0.3)
	reg.CounterFunc("nil_func_total", "h", func() uint64 { return 1 })
	reg.GaugeFunc("nil_func_gauge", "h", func() float64 { return 1 })
	if c.Value() != 2 || g.Value() != 4 || gv.Value() != 1.5 || h.Count() != 1 || hv.Count() != 2 {
		t.Fatalf("nil-registry instruments do not count: counter %v gauge %v gauge child %v hist %d hist child %d",
			c.Value(), g.Value(), gv.Value(), h.Count(), hv.Count())
	}
	cv := reg.CounterVec("nil_vec_total", "h", "k")
	cv.With("a").Inc()
	if got := cv.With("a").Value(); got != 1 {
		t.Fatalf("vec child on a nil registry = %v, want 1 (children persist per vec)", got)
	}

	ctx := ContextWithRegistry(context.Background(), nil)
	_, end := Span(ctx, "nil_registry_probe")
	end()
	var b strings.Builder
	if err := Default().WriteText(&b); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(b.String(), "nil_registry_probe") {
		t.Fatal("span under a nil registry recorded into Default")
	}
}

func TestKindClashPanics(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("clash", "h")
	defer func() {
		if recover() == nil {
			t.Fatal("registering clash as gauge should panic")
		}
	}()
	reg.Gauge("clash", "h")
}

func TestInvalidNamePanics(t *testing.T) {
	reg := NewRegistry()
	defer func() {
		if recover() == nil {
			t.Fatal("invalid metric name should panic")
		}
	}()
	reg.Counter("bad-name", "h")
}

func TestGauge(t *testing.T) {
	reg := NewRegistry()
	g := reg.Gauge("g", "h")
	g.Set(5)
	g.Add(-2.5)
	if got := g.Value(); got != 2.5 {
		t.Fatalf("gauge = %v, want 2.5", got)
	}
}

// TestHistogramBucketBoundaries pins the Prometheus le semantics: an
// observation exactly on a bucket's upper bound counts into that bucket,
// one epsilon above it spills into the next, and values beyond the last
// bound land in +Inf only.
func TestHistogramBucketBoundaries(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("lat", "h", []float64{0.1, 0.5, 1})

	h.Observe(0.1) // boundary: le="0.1"
	h.Observe(0.100001)
	h.Observe(0.5)  // boundary: le="0.5"
	h.Observe(1.0)  // boundary: le="1"
	h.Observe(37.0) // +Inf only

	var b strings.Builder
	if err := reg.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	wantLines := []string{
		`lat_bucket{le="0.1"} 1`,
		`lat_bucket{le="0.5"} 3`, // cumulative: 0.1, 0.100001, 0.5
		`lat_bucket{le="1"} 4`,
		`lat_bucket{le="+Inf"} 5`,
		`lat_count 5`,
	}
	for _, want := range wantLines {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	if h.Count() != 5 {
		t.Errorf("Count = %d, want 5", h.Count())
	}
	if got, want := h.Sum(), 0.1+0.100001+0.5+1+37; math.Abs(got-want) > 1e-9 {
		t.Errorf("Sum = %v, want %v", got, want)
	}
}

func TestHistogramRejectsUnsortedBuckets(t *testing.T) {
	reg := NewRegistry()
	defer func() {
		if recover() == nil {
			t.Fatal("unsorted buckets should panic")
		}
	}()
	reg.Histogram("bad", "h", []float64{1, 1})
}

func TestHistogramQuantile(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("q", "h", []float64{10, 20, 30})
	if !math.IsNaN(h.Quantile(0.5)) {
		t.Error("quantile of empty histogram should be NaN")
	}
	for i := 0; i < 100; i++ {
		h.Observe(float64(i % 30)) // uniform over [0,30)
	}
	if p50 := h.Quantile(0.5); p50 < 5 || p50 > 25 {
		t.Errorf("p50 = %v, want within the middle buckets", p50)
	}
	if p99 := h.Quantile(0.99); p99 < 20 || p99 > 30 {
		t.Errorf("p99 = %v, want in the last finite bucket", p99)
	}
}

// TestConcurrentIncrements hammers every metric type from many goroutines;
// run with -race this is the data-race regression test for the registry's
// lock-free write paths.
func TestConcurrentIncrements(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("conc_total", "h")
	g := reg.Gauge("conc_gauge", "h")
	h := reg.Histogram("conc_hist", "h", []float64{0.5})
	vec := reg.CounterVec("conc_vec_total", "h", "worker")
	var hot HotCounter

	const goroutines, perG = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lbl := string(rune('a' + w))
			for i := 0; i < perG; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(float64(i%2) * 0.75)
				vec.With(lbl).Inc()
				hot.Inc(uintptr(i))
			}
		}(w)
	}
	wg.Wait()

	const want = goroutines * perG
	if got := c.Value(); got != want {
		t.Errorf("counter = %v, want %d", got, want)
	}
	if got := g.Value(); got != want {
		t.Errorf("gauge = %v, want %d", got, want)
	}
	if got := h.Count(); got != want {
		t.Errorf("histogram count = %d, want %d", got, want)
	}
	if got := hot.Load(); got != want {
		t.Errorf("hot counter = %d, want %d", got, want)
	}
	var vecSum float64
	for w := 0; w < goroutines; w++ {
		vecSum += vec.With(string(rune('a' + w))).Value()
	}
	if vecSum != want {
		t.Errorf("vec sum = %v, want %d", vecSum, want)
	}
}

// TestExpositionGolden locks the full Prometheus text rendering: family
// ordering, HELP/TYPE lines, label escaping, histogram buckets, funcs.
func TestExpositionGolden(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("b_requests_total", "Requests.\nSecond line").Add(42)
	reg.Gauge("a_up", "Process up.").Set(1)
	reg.CounterFunc("c_fn_total", "From a func.", func() uint64 { return 7 })
	reg.GaugeFunc("d_fn", "Gauge func.", func() float64 { return 2.5 })
	vec := reg.CounterVec("e_by_route_total", "Per route.", "route", "code")
	vec.With("/v1/check-column", "200").Add(3)
	vec.With(`we"ird\`, "500").Inc()
	reg.Histogram("f_seconds", "Latency.", []float64{0.25, 1}).Observe(0.5)

	var b strings.Builder
	if err := reg.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP a_up Process up.
# TYPE a_up gauge
a_up 1
# HELP b_requests_total Requests.\nSecond line
# TYPE b_requests_total counter
b_requests_total 42
# HELP c_fn_total From a func.
# TYPE c_fn_total counter
c_fn_total 7
# HELP d_fn Gauge func.
# TYPE d_fn gauge
d_fn 2.5
# HELP e_by_route_total Per route.
# TYPE e_by_route_total counter
e_by_route_total{route="/v1/check-column",code="200"} 3
e_by_route_total{route="we\"ird\\",code="500"} 1
# HELP f_seconds Latency.
# TYPE f_seconds histogram
f_seconds_bucket{le="0.25"} 0
f_seconds_bucket{le="1"} 1
f_seconds_bucket{le="+Inf"} 1
f_seconds_sum 0.5
f_seconds_count 1
`
	if got := b.String(); got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}
