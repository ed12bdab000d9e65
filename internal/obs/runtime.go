package obs

import (
	"math"
	"runtime/metrics"
)

// RuntimeCollector exports Go runtime health — GC pause quantiles,
// heap bytes, goroutine count, scheduling latency — from
// runtime/metrics as registry gauges, so daemon health lands in the
// same store (and the same dashboards) as the model telemetry it can
// explain. Collect refreshes the gauges; the tsdb scrape loop calls it
// once per tick, ahead of the registry scrape.
//
// The pause and latency histograms are cumulative over the process
// lifetime, so their quantiles summarize "this process so far" —
// stored as a time series, movement in the curve is recent behavior.
type RuntimeCollector struct {
	samples []metrics.Sample

	heap       *Gauge
	goroutines *Gauge
	gcPause    *GaugeVec
	schedLat   *GaugeVec

	gcPauseIdx  int
	schedLatIdx int
	heapIdx     int
	goroIdx     int
}

// gcPauseNames are the runtime/metrics keys tried for the GC pause
// histogram — it moved in Go 1.22, so both names are probed and the
// collector degrades instead of breaking on toolchain bumps.
var gcPauseNames = []string{
	"/sched/pauses/total/gc:seconds",
	"/gc/pauses:seconds",
}

// NewRuntimeCollector registers the gauges and resolves which
// runtime/metrics keys this toolchain provides.
func NewRuntimeCollector(reg *Registry) *RuntimeCollector {
	c := &RuntimeCollector{
		heap: reg.Gauge("go_heap_bytes",
			"Bytes of live heap objects (runtime/metrics)."),
		goroutines: reg.Gauge("go_goroutines",
			"Live goroutines."),
		gcPause: reg.GaugeVec("go_gc_pause_seconds",
			"Stop-the-world GC pause quantiles over the process lifetime.", "quantile"),
		schedLat: reg.GaugeVec("go_sched_latency_seconds",
			"Goroutine scheduling latency quantiles over the process lifetime.", "quantile"),
		gcPauseIdx:  -1,
		schedLatIdx: -1,
		heapIdx:     -1,
		goroIdx:     -1,
	}
	available := map[string]bool{}
	for _, d := range metrics.All() {
		available[d.Name] = true
	}
	add := func(name string) int {
		if !available[name] {
			return -1
		}
		c.samples = append(c.samples, metrics.Sample{Name: name})
		return len(c.samples) - 1
	}
	c.heapIdx = add("/memory/classes/heap/objects:bytes")
	c.goroIdx = add("/sched/goroutines:goroutines")
	c.schedLatIdx = add("/sched/latencies:seconds")
	for _, name := range gcPauseNames {
		if c.gcPauseIdx = add(name); c.gcPauseIdx >= 0 {
			break
		}
	}
	return c
}

// Collect reads the runtime metrics and refreshes every gauge.
func (c *RuntimeCollector) Collect() {
	if len(c.samples) == 0 {
		return
	}
	metrics.Read(c.samples)
	if i := c.heapIdx; i >= 0 && c.samples[i].Value.Kind() == metrics.KindUint64 {
		c.heap.Set(float64(c.samples[i].Value.Uint64()))
	}
	if i := c.goroIdx; i >= 0 && c.samples[i].Value.Kind() == metrics.KindUint64 {
		c.goroutines.Set(float64(c.samples[i].Value.Uint64()))
	}
	c.setHistQuantiles(c.gcPauseIdx, c.gcPause)
	c.setHistQuantiles(c.schedLatIdx, c.schedLat)
}

func (c *RuntimeCollector) setHistQuantiles(i int, g *GaugeVec) {
	if i < 0 || c.samples[i].Value.Kind() != metrics.KindFloat64Histogram {
		return
	}
	h := c.samples[i].Value.Float64Histogram()
	for _, q := range scrapeQuantiles {
		v := bucketQuantile(h.Buckets, h.Counts, q.p)
		if !math.IsNaN(v) {
			g.With(q.label).Set(v)
		}
	}
}
