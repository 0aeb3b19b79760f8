// Package observe is the dependency-free observability core of the
// Auto-Detect serving and training stack: a metrics registry with
// Prometheus text-format exposition, a log/slog-based structured logger
// with request-ID correlation, a lightweight span API for timing nested
// stages, and cache-line-striped hot counters cheap enough for the
// detection inner loop.
//
// Everything in this package uses only the standard library, takes no
// locks on the metric write paths (counters and histogram cells are
// atomics), and is safe for concurrent use. The intended wiring:
//
//	reg := observe.NewRegistry()
//	requests := reg.CounterVec("autodetect_http_requests_total",
//	    "HTTP requests served.", "route", "code")
//	latency := reg.HistogramVec("autodetect_http_request_seconds",
//	    "HTTP request latency.", observe.DefBuckets, "route")
//	...
//	requests.With("/v1/check-column", "200").Inc()
//	latency.With("/v1/check-column").Observe(time.Since(t0).Seconds())
//	mux.Handle("/metrics", reg.Handler())
//
// Metric names follow the Prometheus conventions: an `autodetect_`
// namespace prefix, `_total` suffix on counters, base units (seconds,
// bytes) in the name. Label cardinality must stay bounded: routes are
// normalized to a fixed set, stages and span names are compile-time
// constants, and nothing derived from request payloads is ever used as a
// label value.
package observe

import (
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// DefBuckets are the default latency histogram buckets in seconds,
// spanning sub-millisecond pair scoring to multi-second pipeline stages.
var DefBuckets = []float64{0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}

// Registry holds named metric families and renders them in Prometheus
// text format. Construct one with NewRegistry; the zero value is not
// usable. A nil *Registry is valid and exports nothing: its registration
// methods hand out working metrics that no scrape ever sees (CounterFunc
// and GaugeFunc do nothing), so a component that may run without a
// registry registers and records unconditionally.
// Registration methods are idempotent: asking for an existing name with
// the same kind returns the existing metric, a kind clash panics (it is a
// programming error, caught by any test that touches the path).
type Registry struct {
	mu   sync.RWMutex
	fams map[string]*family
}

// family is one named metric family: exactly one of the concrete fields
// is set, according to kind.
type family struct {
	name, help string
	kind       string // "counter", "gauge", "histogram"
	labels     []string

	counter *Counter
	gauge   *Gauge
	hist    *Histogram

	counterFn func() uint64
	gaugeFn   func() float64

	// vec children, keyed by joined label values; nil for plain metrics.
	mu       sync.RWMutex
	children map[string]any
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]*family)}
}

var defaultRegistry = NewRegistry()

// Default returns the process-wide registry used by Span when the context
// carries no explicit registry.
func Default() *Registry { return defaultRegistry }

// register installs a family or returns the existing one of the same kind.
// On a nil registry it returns a fresh family that is never stored.
func (r *Registry) register(name, help, kind string, labels []string, build func() *family) *family {
	if err := checkName(name); err != nil {
		panic(err)
	}
	for _, l := range labels {
		if err := checkName(l); err != nil {
			panic(err)
		}
	}
	if r == nil {
		f := build()
		f.name, f.help, f.kind, f.labels = name, help, kind, labels
		return f
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.fams[name]; ok {
		if f.kind != kind || len(f.labels) != len(labels) {
			panic(fmt.Sprintf("observe: %s re-registered as %s with %d labels (was %s with %d)",
				name, kind, len(labels), f.kind, len(f.labels)))
		}
		return f
	}
	f := build()
	f.name, f.help, f.kind, f.labels = name, help, kind, labels
	r.fams[name] = f
	return f
}

func checkName(name string) error {
	if name == "" {
		return errors.New("observe: empty metric name")
	}
	for i, c := range name {
		ok := c == '_' || c == ':' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return fmt.Errorf("observe: invalid metric or label name %q", name)
		}
	}
	return nil
}

// Counter returns the named monotonically increasing counter.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.register(name, help, "counter", nil, func() *family {
		return &family{counter: &Counter{}}
	})
	return f.counter
}

// CounterFunc exposes an externally maintained monotonic value (for
// example a package-level HotCounter) as a counter family. The function
// must be safe for concurrent use; it is called at scrape time only.
func (r *Registry) CounterFunc(name, help string, fn func() uint64) {
	r.register(name, help, "counter", nil, func() *family {
		return &family{counterFn: fn}
	})
}

// Gauge returns the named gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	f := r.register(name, help, "gauge", nil, func() *family {
		return &family{gauge: &Gauge{}}
	})
	return f.gauge
}

// GaugeFunc exposes an externally computed value as a gauge family,
// evaluated at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.register(name, help, "gauge", nil, func() *family {
		return &family{gaugeFn: fn}
	})
}

// Histogram returns the named fixed-bucket histogram. buckets are upper
// bounds in increasing order; the +Inf bucket is implicit. nil buckets
// default to DefBuckets.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	f := r.register(name, help, "histogram", nil, func() *family {
		return &family{hist: newHistogram(buckets)}
	})
	return f.hist
}

// CounterVec returns the named counter family partitioned by labels.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	f := r.register(name, help, "counter", labels, func() *family {
		return &family{children: make(map[string]any)}
	})
	return &CounterVec{fam: f}
}

// GaugeVec returns the named gauge family partitioned by labels.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	f := r.register(name, help, "gauge", labels, func() *family {
		return &family{children: make(map[string]any)}
	})
	return &GaugeVec{fam: f}
}

// HistogramVec returns the named histogram family partitioned by labels.
// All children share the same buckets (nil defaults to DefBuckets).
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	f := r.register(name, help, "histogram", labels, func() *family {
		return &family{children: make(map[string]any)}
	})
	return &HistogramVec{fam: f, buckets: buckets}
}

// Counter is a monotonically increasing float64 counter. Increments are
// lock-free (CAS on the bit pattern); use HotCounter where a shared CAS
// cell would contend.
type Counter struct{ bits atomic.Uint64 }

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Add increments by d, which must be non-negative.
func (c *Counter) Add(d float64) {
	if d < 0 {
		panic("observe: counter decrement")
	}
	addFloat(&c.bits, d)
}

// Value returns the current count.
func (c *Counter) Value() float64 { return math.Float64frombits(c.bits.Load()) }

// Gauge is a float64 value that can go up and down.
type Gauge struct{ bits atomic.Uint64 }

// Set replaces the value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adjusts the value by d (negative allowed).
func (g *Gauge) Add(d float64) { addFloat(&g.bits, d) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

func addFloat(bits *atomic.Uint64, d float64) {
	for {
		old := bits.Load()
		new_ := math.Float64bits(math.Float64frombits(old) + d)
		if bits.CompareAndSwap(old, new_) {
			return
		}
	}
}

// Histogram counts observations into fixed buckets. Observation is
// lock-free: one atomic add on the bucket cell and one CAS on the sum.
//
// Bucket semantics follow Prometheus: an observation v lands in the first
// bucket whose upper bound satisfies v <= le, so a value exactly on a
// boundary counts into that boundary's bucket.
type Histogram struct {
	uppers  []float64
	cells   []atomic.Uint64 // len(uppers)+1; last cell is the +Inf overflow
	sumBits atomic.Uint64
	// exemplars holds the most recent exemplar per bucket (incl. +Inf),
	// published atomically and rendered only by WriteOpenMetrics.
	exemplars []atomic.Pointer[exemplar]
}

// exemplar links one observed value to the trace that produced it,
// OpenMetrics-style, so a histogram tail can be followed into
// /debug/traces.
type exemplar struct {
	traceID string
	value   float64
	unixMs  int64
}

func newHistogram(buckets []float64) *Histogram {
	if buckets == nil {
		buckets = DefBuckets
	}
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic("observe: histogram buckets must be strictly increasing")
		}
	}
	uppers := make([]float64, len(buckets))
	copy(uppers, buckets)
	return &Histogram{
		uppers:    uppers,
		cells:     make([]atomic.Uint64, len(uppers)+1),
		exemplars: make([]atomic.Pointer[exemplar], len(uppers)+1),
	}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.uppers, v) // first bucket with le >= v
	h.cells[i].Add(1)
	addFloat(&h.sumBits, v)
}

// ObserveExemplar records one value and, when traceID is non-empty,
// publishes it as the bucket's exemplar. The 0.0.4 text exposition is
// unchanged; WriteOpenMetrics appends exemplars to bucket lines so a
// scraper can link latency tails to flight-recorder traces.
func (h *Histogram) ObserveExemplar(v float64, traceID string) {
	i := sort.SearchFloat64s(h.uppers, v)
	h.cells[i].Add(1)
	addFloat(&h.sumBits, v)
	if traceID != "" {
		h.exemplars[i].Store(&exemplar{traceID: traceID, value: v, unixMs: time.Now().UnixMilli()})
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 {
	var n uint64
	for i := range h.cells {
		n += h.cells[i].Load()
	}
	return n
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Quantile returns an estimate of quantile q by linear interpolation
// inside the bucket that crosses the target rank, assuming observations
// distribute uniformly within each bucket and values are non-negative
// (the first finite bucket interpolates up from 0). It is a
// bucket-resolution estimate — good enough for smoke benchmarks and
// alerts, not for billing.
//
// Edge behavior is pinned by tests: q is clamped to [0,1]; an empty
// histogram, a histogram declared with zero finite buckets, or a NaN q
// returns NaN; and a rank that lands in the +Inf overflow bucket
// returns the highest finite bucket bound — the histogram holds no
// information above it, so the estimate clamps there rather than
// inventing a value or returning +Inf.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.Count()
	if total == 0 || len(h.uppers) == 0 || math.IsNaN(q) {
		return math.NaN()
	}
	q = math.Min(math.Max(q, 0), 1)
	target := q * float64(total)
	var cum float64
	lower := 0.0
	for i, u := range h.uppers {
		c := float64(h.cells[i].Load())
		if cum+c >= target {
			if c == 0 {
				return u
			}
			return lower + (u-lower)*((target-cum)/c)
		}
		cum += c
		lower = u
	}
	return h.uppers[len(h.uppers)-1] // rank is in the +Inf bucket: clamp to the last finite bound
}

// CounterVec partitions counters by label values.
type CounterVec struct{ fam *family }

// With returns the child counter for the given label values, creating it
// on first use. The number of values must match the declared labels.
func (v *CounterVec) With(values ...string) *Counter {
	return v.fam.child(values, func() any { return &Counter{} }).(*Counter)
}

// GaugeVec partitions gauges by label values.
type GaugeVec struct{ fam *family }

// With returns the child gauge for the given label values.
func (v *GaugeVec) With(values ...string) *Gauge {
	return v.fam.child(values, func() any { return &Gauge{} }).(*Gauge)
}

// HistogramVec partitions histograms by label values.
type HistogramVec struct {
	fam     *family
	buckets []float64
}

// With returns the child histogram for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram {
	return v.fam.child(values, func() any { return newHistogram(v.buckets) }).(*Histogram)
}

func (f *family) child(values []string, build func() any) any {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("observe: %s wants %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	key := strings.Join(values, "\x00")
	f.mu.RLock()
	c, ok := f.children[key]
	f.mu.RUnlock()
	if ok {
		return c
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok := f.children[key]; ok {
		return c
	}
	c = build()
	f.children[key] = c
	return c
}

// WriteText renders every family in Prometheus text exposition format
// (version 0.0.4), families and children in sorted order so output is
// deterministic and diffable in golden tests. Exemplars are never
// rendered here — 0.0.4 has no syntax for them.
func (r *Registry) WriteText(w io.Writer) error {
	return r.write(w, false)
}

// WriteOpenMetrics renders the same families in the OpenMetrics flavor:
// identical sample lines, plus `# {trace_id="..."} value timestamp`
// exemplars appended to histogram bucket lines that have one, and a
// terminating `# EOF`. Served by Handler when the scraper negotiates
// Accept: application/openmetrics-text.
func (r *Registry) WriteOpenMetrics(w io.Writer) error {
	return r.write(w, true)
}

func (r *Registry) write(w io.Writer, exemplars bool) error {
	r.mu.RLock()
	names := make([]string, 0, len(r.fams))
	for n := range r.fams {
		names = append(names, n)
	}
	fams := make([]*family, 0, len(names))
	sort.Strings(names)
	for _, n := range names {
		fams = append(fams, r.fams[n])
	}
	r.mu.RUnlock()

	var b strings.Builder
	for _, f := range fams {
		f.writeText(&b, exemplars)
	}
	if exemplars {
		b.WriteString("# EOF\n")
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func (f *family) writeText(b *strings.Builder, exemplars bool) {
	fmt.Fprintf(b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
	fmt.Fprintf(b, "# TYPE %s %s\n", f.name, f.kind)
	if f.children == nil {
		switch {
		case f.counter != nil:
			writeSample(b, f.name, "", "", f.counter.Value())
		case f.counterFn != nil:
			writeSample(b, f.name, "", "", float64(f.counterFn()))
		case f.gauge != nil:
			writeSample(b, f.name, "", "", f.gauge.Value())
		case f.gaugeFn != nil:
			writeSample(b, f.name, "", "", f.gaugeFn())
		case f.hist != nil:
			writeHistogram(b, f.name, "", f.hist, exemplars)
		}
		return
	}
	f.mu.RLock()
	keys := make([]string, 0, len(f.children))
	for k := range f.children {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	children := make([]any, len(keys))
	for i, k := range keys {
		children[i] = f.children[k]
	}
	f.mu.RUnlock()
	for i, k := range keys {
		lbl := renderLabels(f.labels, strings.Split(k, "\x00"))
		switch c := children[i].(type) {
		case *Counter:
			writeSample(b, f.name, "", lbl, c.Value())
		case *Gauge:
			writeSample(b, f.name, "", lbl, c.Value())
		case *Histogram:
			writeHistogram(b, f.name, lbl, c, exemplars)
		}
	}
}

// renderLabels renders `name="value"` pairs without the surrounding
// braces, so histogram exposition can append its le label.
func renderLabels(names, values []string) string {
	var b strings.Builder
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(n)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(values[i]))
		b.WriteByte('"')
	}
	return b.String()
}

func writeSample(b *strings.Builder, name, suffix, labels string, v float64) {
	b.WriteString(name)
	b.WriteString(suffix)
	if labels != "" {
		b.WriteByte('{')
		b.WriteString(labels)
		b.WriteByte('}')
	}
	b.WriteByte(' ')
	b.WriteString(formatFloat(v))
	b.WriteByte('\n')
}

func writeHistogram(b *strings.Builder, name, labels string, h *Histogram, exemplars bool) {
	var cum uint64
	for i, u := range h.uppers {
		cum += h.cells[i].Load()
		writeBucket(b, name, joinLabels(labels, `le="`+formatFloat(u)+`"`), float64(cum), h, i, exemplars)
	}
	cum += h.cells[len(h.uppers)].Load()
	writeBucket(b, name, joinLabels(labels, `le="+Inf"`), float64(cum), h, len(h.uppers), exemplars)
	writeSample(b, name, "_sum", labels, h.Sum())
	writeSample(b, name, "_count", labels, float64(cum))
}

// writeBucket writes one cumulative bucket sample, appending the
// bucket's exemplar in OpenMetrics syntax when requested and present:
//
//	name_bucket{le="0.25"} 17 # {trace_id="4bf9..."} 0.213 1723111845.123
func writeBucket(b *strings.Builder, name, labels string, v float64, h *Histogram, i int, exemplars bool) {
	if !exemplars {
		writeSample(b, name, "_bucket", labels, v)
		return
	}
	e := h.exemplars[i].Load()
	b.WriteString(name)
	b.WriteString("_bucket{")
	b.WriteString(labels)
	b.WriteString("} ")
	b.WriteString(formatFloat(v))
	if e != nil {
		b.WriteString(` # {trace_id="`)
		b.WriteString(escapeLabel(e.traceID))
		b.WriteString(`"} `)
		b.WriteString(formatFloat(e.value))
		b.WriteByte(' ')
		b.WriteString(strconv.FormatFloat(float64(e.unixMs)/1000, 'f', 3, 64))
	}
	b.WriteByte('\n')
}

func joinLabels(a, b string) string {
	if a == "" {
		return b
	}
	return a + "," + b
}

func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	s := fmt.Sprintf("%g", v)
	return s
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	return strings.ReplaceAll(s, `"`, `\"`)
}

// Handler returns an http.Handler serving the registry in Prometheus text
// format, for mounting at GET /metrics. Scrapers that send
// Accept: application/openmetrics-text get the OpenMetrics flavor with
// histogram exemplars; everyone else gets plain 0.0.4 text unchanged.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet && req.Method != http.MethodHead {
			http.Error(w, "GET only", http.StatusMethodNotAllowed)
			return
		}
		if strings.Contains(req.Header.Get("Accept"), "application/openmetrics-text") {
			w.Header().Set("Content-Type", "application/openmetrics-text; version=1.0.0; charset=utf-8")
			_ = r.WriteOpenMetrics(w)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WriteText(w)
	})
}
