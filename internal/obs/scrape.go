package obs

import (
	"math"
	"sort"
)

// ScrapeSample is one instantaneous value captured from a registry —
// the unit the embedded time-series store ingests. Counters and gauges
// yield one sample per series; histograms yield their p50/p95/p99
// quantile estimates (an extra "quantile" label) plus _count and _sum
// samples, so distribution drift is visible over history without
// storing every bucket.
type ScrapeSample struct {
	Name        string
	LabelNames  []string
	LabelValues []string
	Value       float64
}

// scrapeQuantiles are the histogram quantiles Scrape exports.
var scrapeQuantiles = []struct {
	p     float64
	label string
}{{0.5, "0.5"}, {0.95, "0.95"}, {0.99, "0.99"}}

// truncMantissa keeps the top `keep` explicit mantissa bits of v,
// zeroing the rest. Truncation is monotone and loses at most 2^-keep
// relative precision. Scrape uses it on derived samples so the
// time-series store's XOR stage sees long trailing-zero runs instead
// of full-mantissa churn; exact values (counters, gauges, counts) are
// never rounded.
func truncMantissa(v float64, keep uint) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return v
	}
	return math.Float64frombits(math.Float64bits(v) &^ (1<<(52-keep) - 1))
}

// Mantissa bits kept for derived scrape samples. Quantile estimates
// carry at best bucket-width relative error (tens of percent with
// log-linear buckets), so 12 bits (0.02% error) is already generous;
// sums feed rate math and keep 24 bits (6e-8 relative error).
const (
	quantileMantissaBits = 12
	sumMantissaBits      = 24
)

// Scrape appends one sample per metric series to dst and returns it.
// Ordering is deterministic (families by name, series by label
// values), so consecutive scrapes enumerate stable series. The
// registry is read-locked per family, never globally across the walk —
// a scrape may interleave with writes but never blocks them for long.
func (r *Registry) Scrape(dst []ScrapeSample) []ScrapeSample {
	r.mu.RLock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	sort.Strings(names)
	fams := make([]*family, 0, len(names))
	for _, name := range names {
		fams = append(fams, r.families[name])
	}
	r.mu.RUnlock()

	for _, f := range fams {
		dst = f.scrape(dst)
	}
	return dst
}

func (f *family) scrape(dst []ScrapeSample) []ScrapeSample {
	f.mu.Lock()
	defer f.mu.Unlock()
	keys := make([]string, 0, len(f.series))
	for k := range f.series {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		s := f.series[k]
		switch f.kind {
		case "histogram":
			if s.n > 0 {
				for _, q := range scrapeQuantiles {
					dst = append(dst, ScrapeSample{
						Name:        f.name,
						LabelNames:  append(append([]string(nil), f.labels...), "quantile"),
						LabelValues: append(append([]string(nil), s.labelVals...), q.label),
						Value:       truncMantissa(bucketQuantile(f.edges, s.counts, q.p), quantileMantissaBits),
					})
				}
			}
			dst = append(dst, ScrapeSample{
				Name:        f.name + "_count",
				LabelNames:  f.labels,
				LabelValues: s.labelVals,
				Value:       float64(s.n),
			})
			dst = append(dst, ScrapeSample{
				Name:        f.name + "_sum",
				LabelNames:  f.labels,
				LabelValues: s.labelVals,
				Value:       truncMantissa(s.sum, sumMantissaBits),
			})
		default:
			dst = append(dst, ScrapeSample{
				Name:        f.name,
				LabelNames:  f.labels,
				LabelValues: s.labelVals,
				Value:       s.val,
			})
		}
	}
	return dst
}
