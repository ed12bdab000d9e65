package render

import (
	"fmt"
	"html"
	"io"
	"strings"
	"time"
)

// HTMLPage builds a self-contained HTML report: inline CSS, inline
// SVG charts, no external assets, no scripts, no timestamps — the
// same bytes for the same inputs, so reports diff cleanly and the
// replay determinism check can compare them byte-for-byte.
type HTMLPage struct {
	Title string
	// RefreshSec > 0 emits a <meta http-equiv="refresh"> so a live page
	// (dvfsd's /debug/dash) re-polls itself without any script. Leave 0
	// for static reports, which must stay byte-deterministic.
	RefreshSec int
	body       strings.Builder
}

// NewHTMLPage starts a page.
func NewHTMLPage(title string) *HTMLPage {
	return &HTMLPage{Title: title}
}

// Section opens a titled section.
func (p *HTMLPage) Section(title string) {
	fmt.Fprintf(&p.body, "<h2>%s</h2>\n", html.EscapeString(title))
}

// Para adds a paragraph of escaped text.
func (p *HTMLPage) Para(text string) {
	fmt.Fprintf(&p.body, "<p>%s</p>\n", html.EscapeString(text))
}

// Note adds a highlighted aside (approximation warnings, drift notes).
func (p *HTMLPage) Note(text string) {
	fmt.Fprintf(&p.body, "<p class=\"note\">%s</p>\n", html.EscapeString(text))
}

// Table adds a table; header and every row are escaped. Cells whose
// content parses as right-alignable (numbers with optional %/J/ms
// suffixes) are styled by class "num" when num[i] is true.
func (p *HTMLPage) Table(header []string, rows [][]string, num []bool) {
	p.body.WriteString("<table>\n<tr>")
	for i, h := range header {
		cls := ""
		if i < len(num) && num[i] {
			cls = " class=\"num\""
		}
		fmt.Fprintf(&p.body, "<th%s>%s</th>", cls, html.EscapeString(h))
	}
	p.body.WriteString("</tr>\n")
	for _, row := range rows {
		p.body.WriteString("<tr>")
		for i, c := range row {
			cls := ""
			if i < len(num) && num[i] {
				cls = " class=\"num\""
			}
			fmt.Fprintf(&p.body, "<td%s>%s</td>", cls, html.EscapeString(c))
		}
		p.body.WriteString("</tr>\n")
	}
	p.body.WriteString("</table>\n")
}

// BarChart draws a horizontal bar chart as inline SVG: one row per
// label, bars scaled to the maximum value. Values render with the
// given format suffix (e.g. "%.1f%%").
func (p *HTMLPage) BarChart(title string, labels []string, values []float64, format string) {
	if len(labels) == 0 || len(labels) != len(values) {
		return
	}
	maxV := 0.0
	for _, v := range values {
		if v > maxV {
			maxV = v
		}
	}
	const (
		rowH   = 22
		labelW = 170
		chartW = 420
		valueW = 90
		barH   = 14
	)
	w := labelW + chartW + valueW
	h := rowH * len(labels)
	fmt.Fprintf(&p.body, "<h3>%s</h3>\n", html.EscapeString(title))
	fmt.Fprintf(&p.body, "<svg width=\"%d\" height=\"%d\" role=\"img\">\n", w, h)
	for i, v := range values {
		y := i * rowH
		bw := 0.0
		if maxV > 0 {
			bw = v / maxV * chartW
		}
		fmt.Fprintf(&p.body, "<text x=\"%d\" y=\"%d\" class=\"lbl\">%s</text>",
			labelW-6, y+barH, html.EscapeString(labels[i]))
		fmt.Fprintf(&p.body, "<rect x=\"%d\" y=\"%d\" width=\"%.1f\" height=\"%d\" class=\"bar\"/>",
			labelW, y+barH-12, bw, barH)
		fmt.Fprintf(&p.body, "<text x=\"%.1f\" y=\"%d\" class=\"val\">"+format+"</text>\n",
			float64(labelW)+bw+6, y+barH, v)
	}
	p.body.WriteString("</svg>\n")
}

// Sparkline draws a compact inline-SVG time series: values in order,
// scaled to their own min/max, with the latest value printed after the
// line. Made for the dashboard's rolling windows (miss rate, phase
// latency) where shape matters more than axes. Non-finite inputs and
// empty series render nothing.
func (p *HTMLPage) Sparkline(title string, values []float64, format string) {
	if len(values) == 0 {
		return
	}
	minV, maxV := values[0], values[0]
	for _, v := range values {
		if v != v || v > 1e300 || v < -1e300 {
			return
		}
		if v < minV {
			minV = v
		}
		if v > maxV {
			maxV = v
		}
	}
	const (
		w    = 240
		h    = 36
		padY = 4.0
	)
	span := maxV - minV
	fmt.Fprintf(&p.body, "<div class=\"spark\"><span class=\"lbl\">%s</span>",
		html.EscapeString(title))
	fmt.Fprintf(&p.body, "<svg width=\"%d\" height=\"%d\" role=\"img\"><polyline class=\"line\" points=\"", w, h)
	for i, v := range values {
		x := 0.0
		if len(values) > 1 {
			x = float64(i) / float64(len(values)-1) * float64(w-2)
		}
		frac := 0.5
		if span > 0 {
			frac = (v - minV) / span
		}
		y := padY + (1-frac)*(float64(h)-2*padY)
		sep := " "
		if i == 0 {
			sep = ""
		}
		fmt.Fprintf(&p.body, "%s%.1f,%.1f", sep, x+1, y)
	}
	p.body.WriteString("\"/></svg>")
	fmt.Fprintf(&p.body, "<span class=\"val\">"+format+"</span></div>\n", values[len(values)-1])
}

// NavLinks renders a row of links (the dashboards' history-window
// selector). Each item is {href, text}; an item with an empty href is
// the current selection and renders as plain emphasized text.
func (p *HTMLPage) NavLinks(items [][2]string) {
	p.body.WriteString("<p class=\"nav\">")
	for i, it := range items {
		if i > 0 {
			p.body.WriteString(" · ")
		}
		if it[0] == "" {
			fmt.Fprintf(&p.body, "<strong>%s</strong>", html.EscapeString(it[1]))
		} else {
			fmt.Fprintf(&p.body, "<a href=\"%s\">%s</a>",
				html.EscapeString(it[0]), html.EscapeString(it[1]))
		}
	}
	p.body.WriteString("</p>\n")
}

// ChartSpan is one highlighted time interval on a TimeSeriesSpans
// chart — the dashboards shade alert firing windows with these. Label
// becomes the rect's SVG tooltip.
type ChartSpan struct {
	FromMs, ToMs int64
	Label        string
}

// TimeSeriesSpans draws an axis-labeled inline-SVG line chart — the
// long-horizon sibling of Sparkline, made for telemetry history where
// the time span matters as much as the shape. X carries the first,
// middle, and last sample timestamps (UTC, HH:MM:SS); Y carries the
// min/mid/max with gridlines; the latest value renders after the
// title. timesMs are Unix milliseconds and must be in order. Pairs
// with a non-finite value are skipped; empty or mismatched input
// renders nothing. Shaded interval overlays sit behind the line: each
// span renders as a translucent rect clipped to the charted time
// range, so an alert's firing window reads directly on the metric
// that tripped it.
func (p *HTMLPage) TimeSeriesSpans(title string, timesMs []int64, vals []float64, format string, spans []ChartSpan) {
	if len(timesMs) == 0 || len(timesMs) != len(vals) {
		return
	}
	type pt struct {
		t int64
		v float64
	}
	pts := make([]pt, 0, len(vals))
	for i, v := range vals {
		if v != v || v > 1e300 || v < -1e300 {
			continue
		}
		pts = append(pts, pt{timesMs[i], v})
	}
	if len(pts) == 0 {
		return
	}
	minT, maxT := pts[0].t, pts[len(pts)-1].t
	minV, maxV := pts[0].v, pts[0].v
	for _, q := range pts {
		if q.v < minV {
			minV = q.v
		}
		if q.v > maxV {
			maxV = q.v
		}
	}
	const (
		leftW  = 64 // y-axis label gutter
		chartW = 480
		chartH = 96
		botH   = 16 // x-axis label strip
		padY   = 4.0
	)
	w := leftW + chartW + 4
	h := chartH + botH
	spanT := float64(maxT - minT)
	spanV := maxV - minV
	x := func(t int64) float64 {
		if spanT <= 0 {
			return leftW + float64(chartW)/2
		}
		return leftW + float64(t-minT)/spanT*float64(chartW-2) + 1
	}
	y := func(v float64) float64 {
		frac := 0.5
		if spanV > 0 {
			frac = (v - minV) / spanV
		}
		return padY + (1-frac)*(chartH-2*padY)
	}
	stamp := func(t int64) string {
		return time.UnixMilli(t).UTC().Format("15:04:05")
	}
	fmt.Fprintf(&p.body, "<div class=\"tschart\"><h3>%s <span class=\"val\">"+format+"</span></h3>\n",
		html.EscapeString(title), pts[len(pts)-1].v)
	fmt.Fprintf(&p.body, "<svg width=\"%d\" height=\"%d\" role=\"img\">\n", w, h)
	// Gridlines + y labels at max, mid, min.
	for _, gv := range []float64{maxV, minV + spanV/2, minV} {
		gy := y(gv)
		fmt.Fprintf(&p.body, "<line x1=\"%d\" y1=\"%.1f\" x2=\"%d\" y2=\"%.1f\" class=\"grid\"/>",
			leftW, gy, leftW+chartW, gy)
		fmt.Fprintf(&p.body, "<text x=\"%d\" y=\"%.1f\" class=\"axis yl\">%.4g</text>\n",
			leftW-6, gy+3, gv)
	}
	// X labels: first, middle, last sample timestamps (UTC).
	fmt.Fprintf(&p.body, "<text x=\"%d\" y=\"%d\" class=\"axis\">%s</text>", leftW, h-3, stamp(minT))
	if spanT > 0 {
		fmt.Fprintf(&p.body, "<text x=\"%d\" y=\"%d\" class=\"axis xm\">%s</text>",
			leftW+chartW/2, h-3, stamp(minT+(maxT-minT)/2))
		fmt.Fprintf(&p.body, "<text x=\"%d\" y=\"%d\" class=\"axis xr\">%s</text>",
			leftW+chartW, h-3, stamp(maxT))
	}
	// Firing-window overlays go under the line so the data stays
	// legible on top of them.
	for _, sp := range spans {
		from, to := sp.FromMs, sp.ToMs
		if to < minT || from > maxT || to < from {
			continue
		}
		if from < minT {
			from = minT
		}
		if to > maxT {
			to = maxT
		}
		x0, x1 := x(from), x(to)
		if x1-x0 < 2 {
			x1 = x0 + 2 // a short incident must still be visible
		}
		fmt.Fprintf(&p.body, "<rect x=\"%.1f\" y=\"%.1f\" width=\"%.1f\" height=\"%.1f\" class=\"firing\">",
			x0, padY, x1-x0, float64(chartH)-2*padY)
		if sp.Label != "" {
			fmt.Fprintf(&p.body, "<title>%s</title>", html.EscapeString(sp.Label))
		}
		p.body.WriteString("</rect>\n")
	}
	p.body.WriteString("\n<polyline class=\"line\" points=\"")
	for i, q := range pts {
		if i > 0 {
			p.body.WriteString(" ")
		}
		fmt.Fprintf(&p.body, "%.1f,%.1f", x(q.t), y(q.v))
	}
	p.body.WriteString("\"/></svg></div>\n")
}

// Band draws a quantile-band sparkline: a shaded region between the lo
// and hi series with the mid series as a line — the fleet dashboard's
// view of a distribution over time (e.g. residual p50–p99 with a p95
// line). All three series must be the same length; the latest mid
// value is printed after the chart. Non-finite inputs and empty or
// mismatched series render nothing.
func (p *HTMLPage) Band(title string, lo, mid, hi []float64, format string) {
	n := len(mid)
	if n == 0 || len(lo) != n || len(hi) != n {
		return
	}
	minV, maxV := lo[0], hi[0]
	for i := 0; i < n; i++ {
		for _, v := range [3]float64{lo[i], mid[i], hi[i]} {
			if v != v || v > 1e300 || v < -1e300 {
				return
			}
			if v < minV {
				minV = v
			}
			if v > maxV {
				maxV = v
			}
		}
	}
	const (
		w    = 240
		h    = 36
		padY = 4.0
	)
	span := maxV - minV
	pt := func(i int, v float64) (float64, float64) {
		x := 0.0
		if n > 1 {
			x = float64(i) / float64(n-1) * float64(w-2)
		}
		frac := 0.5
		if span > 0 {
			frac = (v - minV) / span
		}
		return x + 1, padY + (1-frac)*(float64(h)-2*padY)
	}
	fmt.Fprintf(&p.body, "<div class=\"spark\"><span class=\"lbl\">%s</span>",
		html.EscapeString(title))
	fmt.Fprintf(&p.body, "<svg width=\"%d\" height=\"%d\" role=\"img\"><polygon class=\"band\" points=\"", w, h)
	// The band polygon walks lo left→right then hi right→left.
	for i := 0; i < n; i++ {
		x, y := pt(i, lo[i])
		if i > 0 {
			p.body.WriteString(" ")
		}
		fmt.Fprintf(&p.body, "%.1f,%.1f", x, y)
	}
	for i := n - 1; i >= 0; i-- {
		x, y := pt(i, hi[i])
		fmt.Fprintf(&p.body, " %.1f,%.1f", x, y)
	}
	p.body.WriteString("\"/><polyline class=\"line\" points=\"")
	for i := 0; i < n; i++ {
		x, y := pt(i, mid[i])
		if i > 0 {
			p.body.WriteString(" ")
		}
		fmt.Fprintf(&p.body, "%.1f,%.1f", x, y)
	}
	p.body.WriteString("\"/></svg>")
	fmt.Fprintf(&p.body, "<span class=\"val\">"+format+"</span></div>\n", mid[n-1])
}

// WriteTo renders the complete document.
func (p *HTMLPage) WriteTo(w io.Writer) (int64, error) {
	var b strings.Builder
	b.WriteString("<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n<meta charset=\"utf-8\">\n")
	if p.RefreshSec > 0 {
		fmt.Fprintf(&b, "<meta http-equiv=\"refresh\" content=\"%d\">\n", p.RefreshSec)
	}
	fmt.Fprintf(&b, "<title>%s</title>\n", html.EscapeString(p.Title))
	b.WriteString(`<style>
body { font: 14px/1.45 system-ui, sans-serif; margin: 2rem auto; max-width: 64rem; color: #222; }
h1 { font-size: 1.4rem; } h2 { font-size: 1.15rem; margin-top: 2rem; border-bottom: 1px solid #ddd; }
h3 { font-size: 1rem; margin-bottom: .3rem; }
table { border-collapse: collapse; margin: .6rem 0 1rem; }
th, td { padding: .25rem .7rem; border-bottom: 1px solid #eee; text-align: left; }
th { border-bottom: 1px solid #999; }
th.num, td.num { text-align: right; font-variant-numeric: tabular-nums; }
p.note { background: #fff6d9; border-left: 3px solid #e0b400; padding: .4rem .7rem; }
svg .bar { fill: #4a78b5; } svg .lbl { text-anchor: end; font-size: 12px; fill: #222; }
svg .val { font-size: 12px; fill: #444; }
div.spark { display: flex; align-items: center; gap: .6rem; margin: .2rem 0; }
div.spark .lbl { width: 11rem; text-align: right; font-size: 12px; color: #222; }
div.spark .val { font-size: 12px; color: #444; font-variant-numeric: tabular-nums; }
div.spark svg { background: #f7f8fa; border: 1px solid #eee; }
svg .line { fill: none; stroke: #4a78b5; stroke-width: 1.5; }
svg .band { fill: #4a78b5; opacity: .22; stroke: none; }
p.nav { font-size: 13px; color: #666; }
div.tschart { margin: .4rem 0 .8rem; }
div.tschart h3 { margin: .2rem 0; }
div.tschart svg { background: #f7f8fa; border: 1px solid #eee; }
svg .grid { stroke: #e4e7eb; stroke-width: 1; }
svg .firing { fill: #d9534f; opacity: .15; stroke: none; }
svg .axis { font-size: 10px; fill: #667; text-anchor: start; }
svg .axis.yl { text-anchor: end; }
svg .axis.xm { text-anchor: middle; }
svg .axis.xr { text-anchor: end; }
</style>
</head>
<body>
`)
	fmt.Fprintf(&b, "<h1>%s</h1>\n", html.EscapeString(p.Title))
	b.WriteString(p.body.String())
	b.WriteString("</body>\n</html>\n")
	n, err := io.WriteString(w, b.String())
	return int64(n), err
}
