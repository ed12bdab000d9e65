package render

import (
	"strings"
	"testing"
)

func TestHTMLPageEscapesAndStructure(t *testing.T) {
	p := NewHTMLPage("Report <x>")
	p.Section("Group a & b")
	p.Para("plain text")
	p.Note("approx: <script>alert(1)</script>")
	p.Table([]string{"policy", "energy"}, [][]string{{"oracle", "1.2 J"}}, []bool{false, true})
	p.BarChart("norm energy", []string{"oracle", "perf"}, []float64{56.1, 100}, "%.1f%%")

	var b strings.Builder
	if _, err := p.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"<!DOCTYPE html>",
		"<title>Report &lt;x&gt;</title>",
		"<h2>Group a &amp; b</h2>",
		"<td class=\"num\">1.2 J</td>",
		"<svg",
		"100.0%",
		"</html>",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q", want)
		}
	}
	// Hostile content must never reach the document unescaped.
	if strings.Contains(out, "<script>") {
		t.Error("unescaped script tag in output")
	}
	// Deterministic: same calls, same bytes.
	var b2 strings.Builder
	p2 := NewHTMLPage("Report <x>")
	p2.Section("Group a & b")
	p2.Para("plain text")
	p2.Note("approx: <script>alert(1)</script>")
	p2.Table([]string{"policy", "energy"}, [][]string{{"oracle", "1.2 J"}}, []bool{false, true})
	p2.BarChart("norm energy", []string{"oracle", "perf"}, []float64{56.1, 100}, "%.1f%%")
	p2.WriteTo(&b2)
	if b.String() != b2.String() {
		t.Error("identical pages rendered different bytes")
	}
}

func TestHTMLPageSparklineAndRefresh(t *testing.T) {
	p := NewHTMLPage("live")
	p.RefreshSec = 5
	p.Sparkline("miss rate", []float64{0, 1, 0.5, 2}, "%.1f%%")
	var b strings.Builder
	p.WriteTo(&b)
	out := b.String()
	for _, want := range []string{
		`<meta http-equiv="refresh" content="5">`,
		"polyline",
		"miss rate",
		"2.0%", // latest value printed after the line
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}

	// Static pages (RefreshSec = 0) must not carry the meta tag — the
	// replay determinism check diffs report bytes.
	p2 := NewHTMLPage("static")
	p2.Sparkline("flat", []float64{3, 3, 3}, "%.0f")
	var b2 strings.Builder
	p2.WriteTo(&b2)
	if strings.Contains(b2.String(), "http-equiv") {
		t.Error("refresh meta on a static page")
	}
	// A flat series still draws (mid-height line), and degenerate
	// inputs render nothing.
	if !strings.Contains(b2.String(), "polyline") {
		t.Error("flat sparkline rendered nothing")
	}
	p3 := NewHTMLPage("bad")
	p3.Sparkline("empty", nil, "%.0f")
	p3.Sparkline("nan", []float64{1, inf()}, "%.0f")
	var b3 strings.Builder
	p3.WriteTo(&b3)
	if strings.Contains(b3.String(), "polyline") {
		t.Error("degenerate sparkline inputs should render nothing")
	}
}

func inf() float64 { x := 0.0; return 1 / x }

func TestHTMLPageEmptyBarChart(t *testing.T) {
	p := NewHTMLPage("t")
	p.BarChart("empty", nil, nil, "%.0f")
	p.BarChart("mismatched", []string{"a"}, []float64{1, 2}, "%.0f")
	var b strings.Builder
	p.WriteTo(&b)
	if strings.Contains(b.String(), "<svg") {
		t.Error("degenerate chart inputs should render nothing")
	}
}

// A firing span shades a history chart only where it overlaps the
// charted time range.
func TestHTMLPageTimeSeriesSpans(t *testing.T) {
	times := []int64{1000, 2000, 3000}
	vals := []float64{1, 2, 3}
	for _, tc := range []struct {
		name  string
		span  ChartSpan
		rects int
	}{
		{"inside", ChartSpan{FromMs: 1500, ToMs: 2500, Label: "model_stale"}, 1},
		{"outside", ChartSpan{FromMs: 4000, ToMs: 5000, Label: "model_stale"}, 0},
	} {
		p := NewHTMLPage("history")
		p.TimeSeriesSpans("heap", times, vals, "%.0f", []ChartSpan{tc.span})
		var b strings.Builder
		p.WriteTo(&b)
		out := b.String()
		if !strings.Contains(out, `class="tschart"`) {
			t.Fatalf("%s: no chart rendered", tc.name)
		}
		if got := strings.Count(out, `class="firing"`); got != tc.rects {
			t.Errorf("%s span: %d firing rects, want %d", tc.name, got, tc.rects)
		}
	}
}
