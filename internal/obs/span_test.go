package obs

import (
	"math"
	"strings"
	"testing"
)

func TestSpanTimerNesting(t *testing.T) {
	st := NewSpanTimer()
	st.Start(PhaseServe)
	st.Start(PhaseLookup)
	st.Next(PhasePredict)
	st.Next(PhaseSelect)
	st.End() // level_select
	st.End() // serve
	spans, total := st.Finish()

	want := []struct {
		name  string
		depth int
	}{
		{PhaseServe, 0},
		{PhaseLookup, 1},
		{PhasePredict, 1},
		{PhaseSelect, 1},
	}
	if len(spans) != len(want) {
		t.Fatalf("ledger has %d spans, want %d: %+v", len(spans), len(want), spans)
	}
	for i, w := range want {
		if spans[i].Name != w.name || spans[i].Depth != w.depth {
			t.Errorf("span %d = %s@%d, want %s@%d", i, spans[i].Name, spans[i].Depth, w.name, w.depth)
		}
		if spans[i].DurSec < 0 {
			t.Errorf("span %d %s left open: dur %g", i, spans[i].Name, spans[i].DurSec)
		}
	}
	// The children are contiguous: each starts where the previous ended,
	// the first at the parent's start, the last ending at the parent's
	// end (serve was closed by the same boundary as level_select's End,
	// modulo one extra clock read — allow a generous tolerance).
	root := spans[0]
	if root.StartSec != 0 {
		t.Errorf("serve starts at %g, want 0", root.StartSec)
	}
	childSum := 0.0
	prevEnd := 0.0
	for _, s := range spans[1:] {
		if math.Abs(s.StartSec-prevEnd) > 1e-12 {
			t.Errorf("%s starts at %g, want contiguous %g", s.Name, s.StartSec, prevEnd)
		}
		prevEnd = s.EndSec()
		childSum += s.DurSec
	}
	if childSum > root.DurSec+1e-12 {
		t.Errorf("children sum %g > parent %g", childSum, root.DurSec)
	}
	if total < root.DurSec || math.Abs(total-root.EndSec()) > 1e-12 {
		t.Errorf("total %g, want serve end %g", total, root.EndSec())
	}
}

func TestSpanTimerFinishClosesOpenSpans(t *testing.T) {
	st := NewSpanTimer()
	st.Start(PhaseServe)
	st.Start(PhaseIngest)
	st.End() // ingest closed, records a boundary
	st.Start(PhasePredict)
	// serve and model_predict left open: Finish must close both at the
	// last recorded boundary, never returning negative durations.
	spans, total := st.Finish()
	if len(spans) != 3 {
		t.Fatalf("ledger has %d spans: %+v", len(spans), spans)
	}
	for _, s := range spans {
		if s.DurSec < 0 {
			t.Errorf("span %s still open after Finish: %+v", s.Name, s)
		}
	}
	if total != spans[0].EndSec() {
		t.Errorf("total %g != root end %g", total, spans[0].EndSec())
	}
}

func TestSpanTimerOverflow(t *testing.T) {
	st := NewSpanTimer()
	// Exceed both the span budget and the depth budget; the timer must
	// degrade by skipping, not corrupt the ledger or panic, and Ends
	// must pair with the skipped Starts.
	for i := 0; i < maxSpans+3; i++ {
		st.Start(PhaseServe)
	}
	for i := 0; i < maxSpans+3; i++ {
		st.End()
	}
	spans, _ := st.Finish()
	if len(spans) == 0 || len(spans) > maxSpans {
		t.Fatalf("overflowed ledger has %d spans", len(spans))
	}
	for _, s := range spans {
		if s.DurSec < 0 {
			t.Errorf("span left open after paired Ends: %+v", s)
		}
		if s.Depth >= maxSpanDepth {
			t.Errorf("span beyond depth budget recorded: %+v", s)
		}
	}
}

func TestSpanTimerNilSafe(t *testing.T) {
	var st *SpanTimer
	st.Start(PhaseServe)
	st.Next(PhasePredict)
	st.End()
	if spans, total := st.Finish(); spans != nil || total != 0 {
		t.Errorf("nil timer Finish = %v, %g", spans, total)
	}
}

func TestAnalyzePhases(t *testing.T) {
	events := []DecisionEvent{
		{Spans: []Span{
			{Name: PhaseServe, DurSec: 0.002},
			{Name: PhasePredict, Depth: 1, DurSec: 0.001},
			{Name: PhaseSelect, StartSec: 0.002, DurSec: 0.03},
		}},
		{Spans: []Span{
			{Name: PhaseServe, DurSec: 0.004},
			{Name: PhasePredict, Depth: 1, DurSec: 0.003},
		}},
		{}, // no ledger: contributes nothing
	}
	stats := AnalyzePhases(events)
	if len(stats) != 3 {
		t.Fatalf("stats = %+v", stats)
	}
	// Canonical order: serve before model_predict before level_select.
	if stats[0].Name != PhaseServe || stats[1].Name != PhasePredict || stats[2].Name != PhaseSelect {
		t.Fatalf("phase order = %s, %s, %s", stats[0].Name, stats[1].Name, stats[2].Name)
	}
	if d := stats[0]; d.N != 2 || math.Abs(d.MeanSec-0.003) > 1e-12 || d.MaxSec != 0.004 {
		t.Errorf("serve stats = %+v", d)
	}
	if e := stats[2]; e.N != 1 || e.MaxSec != 0.03 {
		t.Errorf("level_select stats = %+v", e)
	}
	if AnalyzePhases(nil) != nil {
		t.Error("AnalyzePhases(nil) != nil")
	}
}

func TestFormatDur(t *testing.T) {
	cases := []struct {
		sec  float64
		want string
	}{
		{2.5, "2.5 s"},
		{0.0312, "31.2 ms"},
		{0.000042, "42 us"},
		{0, "0 us"},
	}
	for _, c := range cases {
		if got := FormatDur(c.sec); got != c.want {
			t.Errorf("FormatDur(%g) = %q, want %q", c.sec, got, c.want)
		}
	}
}

func TestReportRendersPhases(t *testing.T) {
	events := []DecisionEvent{{
		Done: true,
		Spans: []Span{
			{Name: PhaseServe, DurSec: 0.002},
			{Name: PhaseSelect, StartSec: 0.002, DurSec: 0.03},
		},
	}}
	r := Analyze(events)
	if r.SpanEvents != 1 || len(r.Phases) != 2 {
		t.Fatalf("report spans: events=%d phases=%+v", r.SpanEvents, r.Phases)
	}
	var b strings.Builder
	r.WriteText(&b)
	if !strings.Contains(b.String(), "phases      measured spans on 1 events") ||
		!strings.Contains(b.String(), PhaseSelect) {
		t.Errorf("text report missing phase block:\n%s", b.String())
	}
}
