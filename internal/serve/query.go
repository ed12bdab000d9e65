package serve

import (
	"fmt"
	"math"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/render"
	"repro/internal/tsdb"
)

// QueryResponse is the GET /v1/query result: the resolved range plus
// every matched series with its points.
type QueryResponse struct {
	Metric string              `json:"metric"`
	FromMs int64               `json:"from_ms"`
	ToMs   int64               `json:"to_ms"`
	StepMs int64               `json:"step_ms,omitempty"`
	Agg    string              `json:"agg,omitempty"`
	Series []tsdb.SeriesResult `json:"series"`
}

// SeriesListResponse lists the stored series when /v1/query is called
// without a metric — the discovery call dashboards and dvfstsdb start
// from.
type SeriesListResponse struct {
	Series []tsdb.SeriesMeta `json:"series"`
}

// maxQueryPoints bounds the buckets one query may produce; a step too
// small for its range is a client error, not an OOM.
const maxQueryPoints = 200_000

// handleQuery serves GET /v1/query over the embedded telemetry store:
// ?metric= selects a family (omit it to list stored series), ?labels=
// (name=value,...) narrows the match, ?from=/?to= bound the range
// (RFC3339, unix seconds, or relative like -15m; default last 15m),
// ?step= buckets samples (duration or seconds; 0 or absent → raw), and
// ?agg= picks the rollup (mean, min, max, count, rate).
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if s.history == nil {
		writeJSON(w, http.StatusNotFound, ErrorResponse{Error: "telemetry history disabled (start dvfsd with -tsdb-scrape > 0)"})
		return
	}
	q := r.URL.Query()
	if q.Get("metric") == "" {
		writeJSON(w, http.StatusOK, SeriesListResponse{Series: s.history.SeriesList()})
		return
	}
	now := time.Now()
	to, err := tsdb.ParseTime(q.Get("to"), now)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: "to: " + err.Error()})
		return
	}
	if to.IsZero() {
		to = now
	}
	from, err := tsdb.ParseTime(q.Get("from"), now)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: "from: " + err.Error()})
		return
	}
	if from.IsZero() {
		from = to.Add(-15 * time.Minute)
	}
	labels, err := tsdb.ParseLabels(q.Get("labels"))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: err.Error()})
		return
	}
	stepMs, err := parseQueryStep(q.Get("step"))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: err.Error()})
		return
	}
	fromMs, toMs := from.UnixMilli(), to.UnixMilli()
	if stepMs > 0 && (toMs-fromMs)/stepMs > maxQueryPoints {
		writeJSON(w, http.StatusBadRequest, ErrorResponse{
			Error: fmt.Sprintf("step %dms too small for range (would produce > %d buckets)", stepMs, maxQueryPoints)})
		return
	}
	res, err := s.history.Query(tsdb.Query{
		Metric: q.Get("metric"),
		Labels: labels,
		FromMs: fromMs,
		ToMs:   toMs,
		StepMs: stepMs,
		Agg:    tsdb.Agg(q.Get("agg")),
	})
	if err != nil {
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: err.Error()})
		return
	}
	scrubNonFinite(res)
	if res == nil {
		res = []tsdb.SeriesResult{}
	}
	writeJSON(w, http.StatusOK, QueryResponse{
		Metric: q.Get("metric"),
		FromMs: fromMs,
		ToMs:   toMs,
		StepMs: stepMs,
		Agg:    string(tsdb.Agg(q.Get("agg"))),
		Series: res,
	})
}

// parseQueryStep accepts a duration ("30s") or seconds ("30"); empty
// or zero selects raw samples.
func parseQueryStep(s string) (int64, error) {
	if s == "" || s == "0" {
		return 0, nil
	}
	if d, err := time.ParseDuration(s); err == nil {
		if d <= 0 {
			return 0, fmt.Errorf("step %q must be positive", s)
		}
		return d.Milliseconds(), nil
	}
	if f, err := strconv.ParseFloat(s, 64); err == nil && f > 0 && !math.IsInf(f, 0) {
		return int64(f * 1000), nil
	}
	return 0, fmt.Errorf("invalid step %q (duration like 30s, or seconds)", s)
}

// scrubNonFinite drops points whose value won't survive JSON encoding
// (NaN/Inf gauges can legitimately land in the store).
func scrubNonFinite(res []tsdb.SeriesResult) {
	for i := range res {
		pts := res[i].Points
		n := 0
		for _, pt := range pts {
			if math.IsNaN(pt.V) || math.IsInf(pt.V, 0) {
				continue
			}
			pts[n] = pt
			n++
		}
		res[i].Points = pts[:n]
	}
}

// tsdbGauges surface the telemetry store's own health on /metrics,
// synced on read like the fleet gauges.
type tsdbGauges struct {
	series    *obs.Gauge
	samples   *obs.Gauge
	bytes     *obs.Gauge
	diskBytes *obs.Gauge
}

func newTSDBGauges(reg *obs.Registry) *tsdbGauges {
	return &tsdbGauges{
		series: reg.Gauge("dvfsd_tsdb_series",
			"Series held by the embedded telemetry store."),
		samples: reg.Gauge("dvfsd_tsdb_samples",
			"Samples held in memory by the embedded telemetry store."),
		bytes: reg.Gauge("dvfsd_tsdb_bytes",
			"Compressed bytes held in memory by the embedded telemetry store."),
		diskBytes: reg.Gauge("dvfsd_tsdb_disk_bytes",
			"Bytes in the telemetry store's on-disk segments."),
	}
}

func (g *tsdbGauges) sync(st tsdb.Stats) {
	g.series.Set(float64(st.Series))
	g.samples.Set(float64(st.Samples))
	g.bytes.Set(float64(st.Bytes))
	g.diskBytes.Set(float64(st.DiskBytes))
}

// dashWindows are the history spans /debug/dash offers; anything else
// on ?window= is a client error so typos don't silently chart an empty
// range.
var dashWindows = []struct {
	name string
	d    time.Duration
}{
	{"15m", 15 * time.Minute},
	{"1h", time.Hour},
	{"6h", 6 * time.Hour},
}

// parseWindow resolves ?window= ("" → 0: live view only).
func parseWindow(s string) (time.Duration, error) {
	if s == "" || s == "live" {
		return 0, nil
	}
	for _, w := range dashWindows {
		if s == w.name {
			return w.d, nil
		}
	}
	return 0, fmt.Errorf("unknown window %q (15m, 1h, 6h)", s)
}

// historyChart describes one dashboard history panel: a store query
// plus how to display it.
type historyChart struct {
	title  string
	metric string
	labels []tsdb.Label
	agg    tsdb.Agg
	scale  float64 // display multiplier (1e3 → ms); 0 means 1
	format string
}

// maxChartSeries caps how many matched series one panel fans out to —
// a per-model metric with dozens of label values gets a pointer to
// /v1/query instead of an unbounded page.
const maxChartSeries = 6

// historySection renders /debug/dash's telemetry-history block:
// window-selector links, then one axis-labeled time-series chart per
// matched series for every historyCharts panel.
func (s *Server) historySection(p *render.HTMLPage, window time.Duration) {
	if s.history == nil {
		return
	}
	p.Section("History")
	items := make([][2]string, 0, len(dashWindows)+1)
	cur := func(sel bool, href string) string {
		if sel {
			return ""
		}
		return href
	}
	items = append(items, [2]string{cur(window == 0, "/debug/dash"), "live"})
	for _, w := range dashWindows {
		items = append(items, [2]string{cur(window == w.d, "/debug/dash?window="+w.name), w.name})
	}
	p.NavLinks(items)
	if window <= 0 {
		p.Para("Pick a window to chart telemetry history (Gorilla-compressed store; also queryable at GET /v1/query).")
		return
	}
	now := time.Now()
	step := window / 240
	if step < time.Second {
		step = time.Second
	}
	fromMs, toMs := now.Add(-window).UnixMilli(), now.UnixMilli()
	empty := true
	for _, c := range historyCharts {
		res, err := s.history.Query(tsdb.Query{
			Metric: c.metric, Labels: c.labels,
			FromMs: fromMs, ToMs: toMs,
			StepMs: step.Milliseconds(), Agg: c.agg,
		})
		if err != nil || len(res) == 0 {
			continue
		}
		empty = false
		shown := res
		if len(shown) > maxChartSeries {
			shown = shown[:maxChartSeries]
		}
		scale := c.scale
		if scale == 0 {
			scale = 1
		}
		// Firing intervals of any alert rule watching this metric are
		// shaded behind the line so incidents line up with the signal
		// that caused them.
		spans := s.firingSpans(c.metric, fromMs, toMs)
		for _, sr := range shown {
			title := c.title
			if len(res) > 1 {
				title = c.title + " — " + extraLabels(sr.Meta, c.labels)
			}
			times := make([]int64, len(sr.Points))
			vals := make([]float64, len(sr.Points))
			for i, pt := range sr.Points {
				times[i] = pt.T
				vals[i] = pt.V * scale
			}
			p.TimeSeriesSpans(title, times, vals, c.format, spans)
		}
		if n := len(res) - maxChartSeries; n > 0 {
			p.Para(fmt.Sprintf("(+%d more %s series — see /v1/query?metric=%s)", n, c.title, c.metric))
		}
	}
	if empty {
		p.Para("No history in this window yet — the scrape loop fills the store as the daemon serves.")
	}
}

// extraLabels renders the labels that distinguish one matched series
// from its siblings (everything the panel didn't already pin).
func extraLabels(meta tsdb.SeriesMeta, fixed []tsdb.Label) string {
	parts := make([]string, 0, len(meta.Labels))
	for _, l := range meta.Labels {
		pinned := false
		for _, f := range fixed {
			if f.Name == l.Name {
				pinned = true
				break
			}
		}
		if !pinned {
			parts = append(parts, l.Name+"="+l.Value)
		}
	}
	if len(parts) == 0 {
		return meta.Key()
	}
	return strings.Join(parts, ",")
}
