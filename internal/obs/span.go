package obs

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/stats"
)

// Phase names for the span ledger of a served decision, the one
// decision whose cost is host time: dvfsd times its own request
// handling. A simulated decision's cost is simulated and lives in its
// outcome fields (DecisionEvent.PredictorSec, MeasSwitchSec,
// ActualExecSec), so it carries no ledger.
const (
	// PhaseServe is the serving tier's root: it encloses request
	// ingest, registry lookup, model prediction, and level selection.
	PhaseServe = "serve"
	// PhasePredict is feature vectorization plus the two model
	// evaluations (tfmin, tfmax).
	PhasePredict = "model_predict"
	// PhaseSelect is the frequency/level selection (dvfs.Selector.Pick).
	PhaseSelect = "level_select"
	// PhaseIngest is HTTP body read + decode on the serve path.
	PhaseIngest = "http_ingest"
	// PhaseLookup is the model-registry lookup + wire-trace decode.
	PhaseLookup = "registry_lookup"
)

// Span is one timed phase of a decision. Ledgers are stored flat in
// preorder with nesting encoded by Depth (the Chrome-trace layout): a
// span's children are the spans that follow it with a greater depth,
// up to the next span at its own depth or less. StartSec is relative
// to the ledger's origin (the instant the decision began).
type Span struct {
	Name     string  `json:"name"`
	Depth    int     `json:"depth,omitempty"`
	StartSec float64 `json:"start_sec"`
	DurSec   float64 `json:"dur_sec"`
}

// EndSec is the span's end offset.
func (s Span) EndSec() float64 { return s.StartSec + s.DurSec }

const (
	maxSpans     = 8
	maxSpanDepth = 4
)

// spanBase anchors every timer's monotonic clock; reading an offset
// from a fixed base (time.Since) is cheaper than time.Now, which also
// fetches the wall clock the ledger never uses.
var spanBase = time.Now()

// SpanTimer records one decision's span ledger with as few monotonic
// clock reads as the ledger shape allows: opening a span reuses the
// previous boundary (phases are contiguous), so a ledger with k
// measured boundaries costs k+1 clock reads regardless of how many
// spans share them. A timer is single-use: Finish returns the ledger
// and the timer must not be reused. All methods are nil-safe, so call
// sites need no tracing-enabled branches.
type SpanTimer struct {
	t0      time.Time
	last    float64
	n       int
	depth   int
	skipped int
	stack   [maxSpanDepth]int8
	spans   [maxSpans]Span
}

// NewSpanTimer starts a ledger; its origin is now.
func NewSpanTimer() *SpanTimer {
	return &SpanTimer{t0: spanBase.Add(time.Since(spanBase))}
}

func (t *SpanTimer) mark() float64 { return time.Since(t.t0).Seconds() }

// Start opens a phase nested under the currently open one. The phase
// begins at the previous boundary — no clock is read, which is exact
// when phases are contiguous (the intended use) and off by the
// inter-call gap otherwise.
//
//dvfs:hotpath
func (t *SpanTimer) Start(name string) {
	if t == nil {
		return
	}
	t.startAt(name, t.last)
}

func (t *SpanTimer) startAt(name string, at float64) {
	if t.n >= maxSpans || t.depth >= maxSpanDepth {
		t.skipped++
		return
	}
	t.spans[t.n] = Span{Name: name, Depth: t.depth, StartSec: at, DurSec: -1}
	t.stack[t.depth] = int8(t.n)
	t.depth++
	t.n++
}

// End closes the innermost open phase at the current instant.
//
//dvfs:hotpath
func (t *SpanTimer) End() {
	if t == nil {
		return
	}
	t.endAt(t.mark())
}

func (t *SpanTimer) endAt(at float64) {
	if t.skipped > 0 {
		t.skipped--
		return
	}
	if t.depth == 0 {
		return
	}
	t.depth--
	i := t.stack[t.depth]
	t.spans[i].DurSec = at - t.spans[i].StartSec
	t.last = at
}

// Next closes the innermost open phase and opens a sibling at the same
// instant — one clock read covers both boundaries.
//
//dvfs:hotpath
func (t *SpanTimer) Next(name string) {
	if t == nil {
		return
	}
	at := t.mark()
	t.endAt(at)
	t.startAt(name, at)
}

// Finish closes any still-open phases at the last recorded boundary
// and returns the ledger plus its extent (the latest top-level end).
// The returned slice aliases the timer's storage; the timer must not
// be used again.
func (t *SpanTimer) Finish() ([]Span, float64) {
	if t == nil {
		return nil, 0
	}
	for t.depth > 0 {
		t.endAt(t.last)
	}
	if t.n == 0 {
		return nil, 0
	}
	total := 0.0
	for i := 0; i < t.n; i++ {
		if t.spans[i].Depth == 0 && t.spans[i].EndSec() > total {
			total = t.spans[i].EndSec()
		}
	}
	return t.spans[:t.n:t.n], total
}

// PhaseStat is one phase's latency distribution across a decision log.
type PhaseStat struct {
	Name    string  `json:"name"`
	N       int     `json:"n"`
	MeanSec float64 `json:"mean_sec"`
	P50Sec  float64 `json:"p50_sec"`
	P95Sec  float64 `json:"p95_sec"`
	MaxSec  float64 `json:"max_sec"`
}

// phaseRank orders known phases the way a ledger reads: the root
// first, then its sub-phases. Unknown names sort after,
// alphabetically.
var phaseRank = map[string]int{
	PhaseServe:   0,
	PhaseIngest:  1,
	PhaseLookup:  2,
	PhasePredict: 3,
	PhaseSelect:  4,
}

// AnalyzePhases aggregates the span ledgers of a decision log into
// per-phase latency stats. Events without spans contribute nothing;
// the result is empty when no event carries a ledger.
func AnalyzePhases(events []DecisionEvent) []PhaseStat {
	durs := map[string][]float64{}
	for i := range events {
		for _, s := range events[i].Spans {
			durs[s.Name] = append(durs[s.Name], s.DurSec)
		}
	}
	if len(durs) == 0 {
		return nil
	}
	names := make([]string, 0, len(durs))
	for name := range durs {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool {
		ri, iok := phaseRank[names[i]]
		rj, jok := phaseRank[names[j]]
		switch {
		case iok && jok:
			return ri < rj
		case iok != jok:
			return iok
		default:
			return names[i] < names[j]
		}
	})
	out := make([]PhaseStat, 0, len(names))
	for _, name := range names {
		xs := durs[name]
		sort.Float64s(xs)
		sum := 0.0
		for _, v := range xs {
			sum += v
		}
		out = append(out, PhaseStat{
			Name:    name,
			N:       len(xs),
			MeanSec: sum / float64(len(xs)),
			P50Sec:  stats.QuantileSorted(xs, 0.50),
			P95Sec:  stats.QuantileSorted(xs, 0.95),
			MaxSec:  xs[len(xs)-1],
		})
	}
	return out
}

// FormatDur renders a duration in seconds with a unit readable at the
// scale spans live at: microseconds below a millisecond, milliseconds
// below a second.
func FormatDur(sec float64) string {
	switch {
	case sec >= 1 || sec <= -1:
		return trimF(sec, "s")
	case sec >= 1e-3 || sec <= -1e-3:
		return trimF(sec*1e3, "ms")
	default:
		return trimF(sec*1e6, "us")
	}
}

// trimF formats v to three decimals with trailing zeros trimmed.
func trimF(v float64, unit string) string {
	s := fmt.Sprintf("%.3f", v)
	for len(s) > 0 && s[len(s)-1] == '0' {
		s = s[:len(s)-1]
	}
	if len(s) > 0 && s[len(s)-1] == '.' {
		s = s[:len(s)-1]
	}
	return s + " " + unit
}
