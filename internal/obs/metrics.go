package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
)

// Registry is the shared metrics registry: counters, gauges, and
// histograms (with optional labels), rendered in the Prometheus text
// exposition format. One registry serves both tiers — dvfsd exposes it
// at GET /metrics, the simulator can carry one for the drift monitor —
// replacing the hand-rolled histogram code that previously lived in
// internal/serve.
//
// All operations are safe for concurrent use. A metric family is
// registered once by name; re-registering the same name returns the
// existing family (and panics on a kind mismatch, which is a
// programming error, not an operational condition).
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

type family struct {
	name, help, kind string
	labels           []string
	bounds           []float64 // histogram bucket upper bounds
	// edges is a histogram's bucket edges, [0, bounds…, +Inf]: the
	// first bucket's lower edge and the overflow bucket's upper edge
	// bracket the bounds. bounds is a view into it.
	edges []float64

	mu     sync.Mutex
	series map[string]*series
}

type series struct {
	labelVals []string
	val       float64 // counter / gauge value
	counts    []int64 // histogram: len(bounds)+1, last is +Inf
	sum       float64
	n         int64
}

func (r *Registry) family(name, help, kind string, bounds []float64, labels []string) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.kind != kind || len(f.labels) != len(labels) {
			panic(fmt.Sprintf("obs: metric %q re-registered as a different kind or label set", name))
		}
		return f
	}
	f := &family{name: name, help: help, kind: kind, labels: labels, series: map[string]*series{}}
	if kind == "histogram" {
		f.edges = append(append([]float64{0}, bounds...), math.Inf(1))
		f.bounds = f.edges[1 : len(f.edges)-1]
	}
	r.families[name] = f
	return f
}

func (f *family) get(labelVals []string) *series {
	if len(labelVals) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %q wants %d label values, got %d", f.name, len(f.labels), len(labelVals)))
	}
	key := strings.Join(labelVals, "\x00")
	f.mu.Lock()
	defer f.mu.Unlock()
	s := f.series[key]
	if s == nil {
		s = &series{labelVals: append([]string(nil), labelVals...)}
		if f.kind == "histogram" {
			s.counts = make([]int64, len(f.bounds)+1)
		}
		f.series[key] = s
	}
	return s
}

// Counter is a monotonically increasing value.
type Counter struct {
	f *family
	s *series
}

// CounterVec is a labeled counter family.
type CounterVec struct{ f *family }

// Counter registers (or retrieves) an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.family(name, help, "counter", nil, nil)
	return &Counter{f: f, s: f.get(nil)}
}

// CounterVec registers (or retrieves) a labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{f: r.family(name, help, "counter", nil, labels)}
}

// With returns the series for the given label values.
func (v *CounterVec) With(labelVals ...string) *Counter {
	return &Counter{f: v.f, s: v.f.get(labelVals)}
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add increases the counter by delta (which must be non-negative).
func (c *Counter) Add(delta float64) {
	c.f.mu.Lock()
	c.s.val += delta
	c.f.mu.Unlock()
}

// RaiseTo folds a running total kept elsewhere (a ring's drop count,
// an engine's incident count) into the counter: it takes total when
// total is larger and otherwise stays put, so it never goes down.
func (c *Counter) RaiseTo(total float64) {
	c.f.mu.Lock()
	if total > c.s.val {
		c.s.val = total
	}
	c.f.mu.Unlock()
}

// Value returns the current count.
func (c *Counter) Value() float64 {
	c.f.mu.Lock()
	defer c.f.mu.Unlock()
	return c.s.val
}

// Each calls fn for every series in the family with its label values
// and current value — the snapshot hook consistency tests use.
func (v *CounterVec) Each(fn func(labelVals []string, value float64)) {
	v.f.mu.Lock()
	defer v.f.mu.Unlock()
	for _, s := range v.f.series {
		fn(s.labelVals, s.val)
	}
}

// Gauge is a value that can go up and down.
type Gauge struct {
	f *family
	s *series
}

// GaugeVec is a labeled gauge family.
type GaugeVec struct{ f *family }

// Gauge registers (or retrieves) an unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	f := r.family(name, help, "gauge", nil, nil)
	return &Gauge{f: f, s: f.get(nil)}
}

// GaugeVec registers (or retrieves) a labeled gauge family.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{f: r.family(name, help, "gauge", nil, labels)}
}

// With returns the series for the given label values.
func (v *GaugeVec) With(labelVals ...string) *Gauge {
	return &Gauge{f: v.f, s: v.f.get(labelVals)}
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	g.f.mu.Lock()
	g.s.val = v
	g.f.mu.Unlock()
}

// Add adjusts the gauge by delta.
func (g *Gauge) Add(delta float64) {
	g.f.mu.Lock()
	g.s.val += delta
	g.f.mu.Unlock()
}

// Value returns the current value.
func (g *Gauge) Value() float64 {
	g.f.mu.Lock()
	defer g.f.mu.Unlock()
	return g.s.val
}

// Histogram accumulates observations into fixed buckets. Buckets are
// cumulative in the exposition (Prometheus `le` semantics: a value
// exactly on a bound lands in that bound's bucket).
type Histogram struct {
	f *family
	s *series
}

// HistogramVec is a labeled histogram family.
type HistogramVec struct{ f *family }

// Histogram registers (or retrieves) an unlabeled histogram with the
// given bucket upper bounds (ascending; +Inf is implicit).
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	f := r.family(name, help, "histogram", bounds, nil)
	return &Histogram{f: f, s: f.get(nil)}
}

// HistogramVec registers (or retrieves) a labeled histogram family.
func (r *Registry) HistogramVec(name, help string, bounds []float64, labels ...string) *HistogramVec {
	return &HistogramVec{f: r.family(name, help, "histogram", bounds, labels)}
}

// With returns the series for the given label values.
func (v *HistogramVec) With(labelVals ...string) *Histogram {
	return &Histogram{f: v.f, s: v.f.get(labelVals)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.f.bounds, v)
	h.f.mu.Lock()
	h.s.counts[i]++
	h.s.sum += v
	h.s.n++
	h.f.mu.Unlock()
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	h.f.mu.Lock()
	defer h.f.mu.Unlock()
	return h.s.n
}

// Quantile estimates the p-quantile (0 < p < 1) from the bucket counts
// with linear interpolation inside the containing bucket. Observations
// in the +Inf bucket are attributed to the last finite bound. Returns
// NaN with no observations.
func (h *Histogram) Quantile(p float64) float64 {
	h.f.mu.Lock()
	defer h.f.mu.Unlock()
	return bucketQuantile(h.f.edges, h.s.counts, p)
}

// bucketQuantile is the one bucket walk behind Histogram.Quantile,
// Registry.Scrape's histogram samples and the runtime collector's
// runtime/metrics histograms. counts[i] observations lie in
// (edges[i], edges[i+1]], so len(edges) == len(counts)+1; the estimate
// interpolates linearly inside the bucket holding rank p·total. A +Inf
// upper edge answers its bucket's lower edge and a -Inf lower edge
// interpolates from its upper edge, the best either bucket can say.
// NaN with no observations.
func bucketQuantile[C int64 | uint64](edges []float64, counts []C, p float64) float64 {
	var total C
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return math.NaN()
	}
	rank := p * float64(total)
	var cum C
	for i, c := range counts {
		prev := cum
		cum += c
		if float64(cum) < rank {
			continue
		}
		lo, hi := edges[i], edges[i+1]
		if math.IsInf(lo, -1) {
			lo = hi
		}
		if math.IsInf(hi, 1) {
			return lo
		}
		if c == 0 {
			return hi
		}
		frac := (rank - float64(prev)) / float64(c)
		return lo + frac*(hi-lo)
	}
	// All mass below rank (rounding): the largest finite edge.
	for i := len(edges) - 1; i >= 0; i-- {
		if !math.IsInf(edges[i], 0) {
			return edges[i]
		}
	}
	return math.NaN()
}

// LogLinearBuckets returns histogram bounds spaced geometrically from
// lo to hi (inclusive) with perDecade bounds per factor-of-ten — the
// log-linear layout that keeps relative quantile-estimation error flat
// across magnitudes (sub-microsecond slice times up to multi-second
// builds).
func LogLinearBuckets(lo, hi float64, perDecade int) []float64 {
	if lo <= 0 || hi <= lo || perDecade < 1 {
		panic("obs: LogLinearBuckets wants 0 < lo < hi and perDecade ≥ 1")
	}
	step := math.Pow(10, 1/float64(perDecade))
	var out []float64
	for b := lo; b < hi*(1+1e-12); b *= step {
		out = append(out, b)
	}
	return out
}

// WriteTo renders the registry in the Prometheus text exposition
// format with deterministic ordering: families sorted by name, series
// sorted by label values.
func (r *Registry) WriteTo(w io.Writer) (int64, error) {
	r.mu.RLock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	fams := make([]*family, 0, len(names))
	sort.Strings(names)
	for _, name := range names {
		fams = append(fams, r.families[name])
	}
	r.mu.RUnlock()

	var b strings.Builder
	for _, f := range fams {
		f.render(&b)
	}
	n, err := io.WriteString(w, b.String())
	return int64(n), err
}

func (f *family) render(b *strings.Builder) {
	f.mu.Lock()
	defer f.mu.Unlock()
	fmt.Fprintf(b, "# HELP %s %s\n", f.name, f.help)
	fmt.Fprintf(b, "# TYPE %s %s\n", f.name, f.kind)
	keys := make([]string, 0, len(f.series))
	for k := range f.series {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		s := f.series[k]
		label := f.labelString(s.labelVals)
		switch f.kind {
		case "histogram":
			f.renderHistogram(b, label, s)
		default:
			if label == "" {
				fmt.Fprintf(b, "%s %s\n", f.name, formatValue(s.val))
			} else {
				fmt.Fprintf(b, "%s{%s} %s\n", f.name, label, formatValue(s.val))
			}
		}
	}
}

func (f *family) labelString(vals []string) string {
	if len(f.labels) == 0 {
		return ""
	}
	parts := make([]string, len(f.labels))
	for i, name := range f.labels {
		parts[i] = fmt.Sprintf("%s=%q", name, vals[i])
	}
	return strings.Join(parts, ",")
}

func (f *family) renderHistogram(b *strings.Builder, label string, s *series) {
	sep := ""
	if label != "" {
		sep = ","
	}
	cum := int64(0)
	for i, bound := range f.bounds {
		cum += s.counts[i]
		fmt.Fprintf(b, "%s_bucket{%s%sle=\"%g\"} %d\n", f.name, label, sep, bound, cum)
	}
	cum += s.counts[len(f.bounds)]
	fmt.Fprintf(b, "%s_bucket{%s%sle=\"+Inf\"} %d\n", f.name, label, sep, cum)
	if label == "" {
		fmt.Fprintf(b, "%s_sum %g\n", f.name, s.sum)
		fmt.Fprintf(b, "%s_count %d\n", f.name, s.n)
	} else {
		fmt.Fprintf(b, "%s_sum{%s} %g\n", f.name, label, s.sum)
		fmt.Fprintf(b, "%s_count{%s} %d\n", f.name, label, s.n)
	}
}

// formatValue renders counters and gauges: integral values without a
// decimal point (matching the previous hand-rolled exposition), %g
// otherwise.
func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}
