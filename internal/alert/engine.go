package alert

import (
	"fmt"
	"io"
	"log/slog"
	"sort"
	"sync"
	"time"

	"repro/internal/tsdb"
)

// Querier is the slice of the telemetry store the engine needs; the
// tests script it, dvfsd passes *tsdb.Store.
type Querier interface {
	Query(q tsdb.Query) ([]tsdb.SeriesResult, error)
}

// State is an alert's position in the pending→firing lifecycle.
// StateResolved appears only in transitions and incident records: a
// resolved alert returns to StateInactive.
type State string

const (
	StateInactive State = "inactive"
	StatePending  State = "pending"
	StateFiring   State = "firing"
	StateResolved State = "resolved"
)

// Transition is one state change: what notifiers receive and what the
// incident log persists.
type Transition struct {
	TimeMs   int64   `json:"time_ms"`
	Rule     string  `json:"rule"`
	Series   string  `json:"series,omitempty"`
	From     State   `json:"from"`
	To       State   `json:"to"`
	Value    float64 `json:"value"`
	Severity string  `json:"severity,omitempty"`
	Summary  string  `json:"summary,omitempty"`
}

// Incident is one firing span: opened on pending→firing, closed on
// resolve. Open incidents have EndMs == 0.
type Incident struct {
	Rule     string  `json:"rule"`
	Series   string  `json:"series,omitempty"`
	Severity string  `json:"severity,omitempty"`
	Summary  string  `json:"summary,omitempty"`
	StartMs  int64   `json:"start_ms"`
	EndMs    int64   `json:"end_ms,omitempty"`
	Value    float64 `json:"value"` // value when the alert fired
}

// ActiveAlert is one pending or firing (rule, series) pair.
type ActiveAlert struct {
	Rule     string  `json:"rule"`
	Series   string  `json:"series,omitempty"`
	State    State   `json:"state"`
	Severity string  `json:"severity"`
	Summary  string  `json:"summary,omitempty"`
	SinceMs  int64   `json:"since_ms"`
	Value    float64 `json:"value"`
}

// Snapshot is the GET /v1/alerts payload.
type Snapshot struct {
	Rules       []RuleStatus  `json:"rules"`
	Active      []ActiveAlert `json:"active"`
	Incidents   []Incident    `json:"incidents"` // newest first, open included
	Evals       uint64        `json:"evals"`
	QueryErrors uint64        `json:"query_errors"`
	LastEvalMs  int64         `json:"last_eval_ms,omitempty"`
}

// RuleStatus summarizes one rule's configuration and worst live state.
type RuleStatus struct {
	Name     string `json:"name"`
	Kind     Kind   `json:"kind"`
	Metric   string `json:"metric"`
	Severity string `json:"severity"`
	State    State  `json:"state"`
	Series   int    `json:"series"` // matched series tracked last eval
}

// Span is one firing interval of a rule, clipped to a query range —
// the dashboard overlays these on the history charts.
type Span struct {
	FromMs   int64
	ToMs     int64
	Rule     string
	Severity string
}

// Config wires an Engine.
type Config struct {
	// Querier answers the rules' range queries. Required.
	Querier Querier
	// Rules is the full rule set (builtin + file). Names must be
	// unique.
	Rules []Rule
	// Notifiers receive firing and resolved transitions; the incident
	// log receives every transition.
	Notifiers []Notifier
	// IncidentLog, when non-empty, is an append-only JSONL of
	// transitions replayed on restart so incidents survive a crash.
	IncidentLog string
	// Log receives one record per firing or resolved transition plus
	// engine diagnostics; nil discards them.
	Log *slog.Logger
}

// incidentHistory bounds the closed incidents an engine retains.
const incidentHistory = 256

// alertState is the live state of one (rule, series) pair.
type alertState struct {
	state   State
	sinceMs int64 // entered current state
	value   float64
	seenMs  int64 // last eval that matched the series
}

// Engine evaluates rules against the store on every scrape tick and
// drives the alert state machine.
type Engine struct {
	mu        sync.Mutex
	q         Querier
	rules     []Rule
	notifiers []Notifier
	log       *slog.Logger

	states map[string]map[string]*alertState // rule → series key
	open   map[string]*Incident              // rule\xffseries → open incident
	closed []Incident                        // ring, oldest first

	ilog *incidentLog

	evals           uint64
	queryErrs       uint64
	incidentsOpened uint64
	lastEvalMs      int64
}

// New builds an engine, replaying the incident log (when configured)
// so alerts that were firing before a restart stay firing without
// re-notifying.
func New(cfg Config) (*Engine, error) {
	if cfg.Querier == nil {
		return nil, fmt.Errorf("alert: Config.Querier is required")
	}
	log := cfg.Log
	if log == nil {
		log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	seen := map[string]bool{}
	for i := range cfg.Rules {
		if err := cfg.Rules[i].validate(); err != nil {
			return nil, err
		}
		if seen[cfg.Rules[i].Name] {
			return nil, fmt.Errorf("alert: duplicate rule name %q", cfg.Rules[i].Name)
		}
		seen[cfg.Rules[i].Name] = true
	}
	e := &Engine{
		q:         cfg.Querier,
		rules:     cfg.Rules,
		notifiers: cfg.Notifiers,
		log:       log,
		states:    map[string]map[string]*alertState{},
		open:      map[string]*Incident{},
	}
	if cfg.IncidentLog != "" {
		il, transitions, skipped, err := openIncidentLog(cfg.IncidentLog)
		if err != nil {
			return nil, err
		}
		e.ilog = il
		e.replay(transitions, seen)
		if len(transitions) > 0 || skipped > 0 {
			log.Info("alert: incident log replayed",
				"path", cfg.IncidentLog, "transitions", len(transitions), "skipped", skipped,
				"open_incidents", len(e.open))
		}
	}
	return e, nil
}

// replay rebuilds live states and incidents from logged transitions.
// Transitions for rules no longer configured rebuild incident history
// but not live state.
func (e *Engine) replay(transitions []Transition, rules map[string]bool) {
	for _, t := range transitions {
		key := t.Rule + "\xff" + t.Series
		switch t.To {
		case StateFiring:
			e.open[key] = &Incident{
				Rule: t.Rule, Series: t.Series, Severity: t.Severity,
				Summary: t.Summary, StartMs: t.TimeMs, Value: t.Value,
			}
			e.incidentsOpened++
		case StateResolved, StateInactive:
			if inc := e.open[key]; inc != nil {
				inc.EndMs = t.TimeMs
				e.pushClosed(*inc)
				delete(e.open, key)
			}
		}
		if !rules[t.Rule] {
			continue
		}
		st := e.stateFor(t.Rule, t.Series)
		to := t.To
		if to == StateResolved {
			to = StateInactive
		}
		st.state = to
		st.sinceMs = t.TimeMs
		st.value = t.Value
		st.seenMs = t.TimeMs
	}
	// Live state for dropped rules would never be evaluated again;
	// their open incidents stay visible until the log is removed.
	for name := range e.states {
		if !rules[name] {
			delete(e.states, name)
		}
	}
}

func (e *Engine) stateFor(rule, series string) *alertState {
	m := e.states[rule]
	if m == nil {
		m = map[string]*alertState{}
		e.states[rule] = m
	}
	st := m[series]
	if st == nil {
		st = &alertState{state: StateInactive}
		m[series] = st
	}
	return st
}

func (e *Engine) pushClosed(inc Incident) {
	e.closed = append(e.closed, inc)
	if len(e.closed) > incidentHistory {
		e.closed = append(e.closed[:0], e.closed[len(e.closed)-incidentHistory:]...)
	}
}

// Eval evaluates every rule at now. The scrape loop calls it after
// each tick lands, so rules see the samples just appended; tests call
// it with a synthetic clock.
func (e *Engine) Eval(now time.Time) {
	e.mu.Lock()
	defer e.mu.Unlock()
	nowMs := now.UnixMilli()
	e.evals++
	e.lastEvalMs = nowMs
	for i := range e.rules {
		e.evalRule(&e.rules[i], nowMs)
	}
}

// seriesValue is one matched series reduced to the rule's scalar.
type seriesValue struct {
	key   string
	value float64
}

// evalRule queries one rule's window and advances the state machine
// for every matched series. Caller holds e.mu.
func (e *Engine) evalRule(r *Rule, nowMs int64) {
	windowMs := time.Duration(r.Window).Milliseconds()
	res, err := e.q.Query(tsdb.Query{
		Metric: r.Metric,
		Labels: r.labelSelector(),
		FromMs: nowMs - windowMs,
		ToMs:   nowMs,
	})
	if err != nil {
		e.queryErrs++
		e.log.Warn("alert: rule query failed", "rule", r.Name, "err", err)
		return
	}
	var values []seriesValue
	samples := 0
	for _, sr := range res {
		if len(sr.Points) == 0 {
			continue
		}
		samples += len(sr.Points)
		if r.Kind == KindAbsence {
			continue
		}
		values = append(values, seriesValue{key: sr.Meta.Key(), value: reduce(r, sr.Points)})
	}
	if r.Kind == KindAbsence {
		// Absence is a rule-level signal: the tracked "series" is the
		// rule itself, its value the sample count.
		breach := samples == 0
		e.advance(r, "", float64(samples), breach, !breach, nowMs)
		return
	}
	live := map[string]bool{}
	for _, v := range values {
		live[v.key] = true
		breach := r.Op.breached(v.value, r.Threshold)
		cleared := !r.Op.breached(v.value, r.clearBound())
		e.advance(r, v.key, v.value, breach, cleared, nowMs)
	}
	// Series that stopped matching (retention, relabeling) count as
	// cleared so their alerts resolve instead of wedging.
	for key, st := range e.states[r.Name] {
		if live[key] || st.state == StateInactive {
			continue
		}
		e.advance(r, key, st.value, false, true, nowMs)
	}
}

// reduce turns a window of raw points into the rule's scalar.
func reduce(r *Rule, pts []tsdb.Point) float64 {
	switch r.Kind {
	case KindBurnRate:
		// Per-second counter increase over the window, resets clamped
		// to zero the way tsdb's rate aggregation does.
		if len(pts) < 2 {
			return 0
		}
		inc := 0.0
		for i := 1; i < len(pts); i++ {
			if d := pts[i].V - pts[i-1].V; d > 0 {
				inc += d
			}
		}
		dt := float64(pts[len(pts)-1].T-pts[0].T) / 1000
		if dt <= 0 {
			return 0
		}
		return inc / dt
	case KindDelta:
		return pts[len(pts)-1].V - pts[0].V
	}
	switch r.Agg {
	case "min":
		m := pts[0].V
		for _, p := range pts[1:] {
			if p.V < m {
				m = p.V
			}
		}
		return m
	case "max":
		m := pts[0].V
		for _, p := range pts[1:] {
			if p.V > m {
				m = p.V
			}
		}
		return m
	case "last":
		return pts[len(pts)-1].V
	case "count":
		return float64(len(pts))
	default: // mean
		s := 0.0
		for _, p := range pts {
			s += p.V
		}
		return s / float64(len(pts))
	}
}

// advance runs one (rule, series) step of the state machine. Caller
// holds e.mu.
func (e *Engine) advance(r *Rule, series string, value float64, breach, cleared bool, nowMs int64) {
	st := e.stateFor(r.Name, series)
	st.value = value
	st.seenMs = nowMs
	switch st.state {
	case StateInactive:
		if breach {
			if time.Duration(r.For) <= 0 {
				e.transition(r, series, st, StateFiring, nowMs)
				return
			}
			e.transition(r, series, st, StatePending, nowMs)
		}
	case StatePending:
		if !breach {
			e.transition(r, series, st, StateInactive, nowMs)
			return
		}
		if nowMs-st.sinceMs >= time.Duration(r.For).Milliseconds() {
			e.transition(r, series, st, StateFiring, nowMs)
		}
	case StateFiring:
		if cleared && nowMs-st.sinceMs >= time.Duration(r.KeepFor).Milliseconds() {
			e.transition(r, series, st, StateResolved, nowMs)
		}
	}
}

// transition applies a state change: incidents, the journal, and for
// firing and resolved the one log record and the notifiers. Caller
// holds e.mu.
func (e *Engine) transition(r *Rule, series string, st *alertState, to State, nowMs int64) {
	t := Transition{
		TimeMs:   nowMs,
		Rule:     r.Name,
		Series:   series,
		From:     st.state,
		To:       to,
		Value:    st.value,
		Severity: r.Severity,
		Summary:  r.Summary,
	}
	if to == StateResolved {
		st.state = StateInactive
	} else {
		st.state = to
	}
	st.sinceMs = nowMs
	key := r.Name + "\xff" + series
	switch to {
	case StateFiring:
		e.open[key] = &Incident{
			Rule: r.Name, Series: series, Severity: r.Severity,
			Summary: r.Summary, StartMs: nowMs, Value: st.value,
		}
		e.incidentsOpened++
	case StateResolved:
		if inc := e.open[key]; inc != nil {
			inc.EndMs = nowMs
			e.pushClosed(*inc)
			delete(e.open, key)
		}
	}
	if e.ilog != nil {
		if err := e.ilog.append(t); err != nil {
			e.log.Error("alert: incident log write failed", "err", err)
		}
	}
	if to == StateFiring || to == StateResolved {
		e.log.Warn("ALERT "+string(to), "rule", r.Name, "series", series,
			"value", st.value, "severity", r.Severity, "summary", r.Summary)
		for _, n := range e.notifiers {
			n.Notify(t)
		}
	}
}

// Snapshot reports the engine's full state, newest incidents first.
func (e *Engine) Snapshot() Snapshot {
	e.mu.Lock()
	defer e.mu.Unlock()
	snap := Snapshot{
		Evals:       e.evals,
		QueryErrors: e.queryErrs,
		LastEvalMs:  e.lastEvalMs,
		Active:      []ActiveAlert{},
		Incidents:   []Incident{},
	}
	for i := range e.rules {
		r := &e.rules[i]
		rs := RuleStatus{
			Name: r.Name, Kind: r.Kind, Metric: r.Metric,
			Severity: r.Severity, State: StateInactive,
		}
		for series, st := range e.states[r.Name] {
			rs.Series++
			if st.state == StateFiring || (st.state == StatePending && rs.State != StateFiring) {
				rs.State = st.state
			}
			if st.state != StateInactive {
				snap.Active = append(snap.Active, ActiveAlert{
					Rule: r.Name, Series: series, State: st.state,
					Severity: r.Severity, Summary: r.Summary,
					SinceMs: st.sinceMs, Value: st.value,
				})
			}
		}
		snap.Rules = append(snap.Rules, rs)
	}
	sort.Slice(snap.Active, func(i, j int) bool {
		if snap.Active[i].Rule != snap.Active[j].Rule {
			return snap.Active[i].Rule < snap.Active[j].Rule
		}
		return snap.Active[i].Series < snap.Active[j].Series
	})
	for _, inc := range e.open {
		snap.Incidents = append(snap.Incidents, *inc)
	}
	for i := len(e.closed) - 1; i >= 0; i-- {
		snap.Incidents = append(snap.Incidents, e.closed[i])
	}
	// Newest first; incidents that opened in the same tick come out by
	// rule, then series, not in the open map's iteration order.
	sort.SliceStable(snap.Incidents, func(i, j int) bool {
		a, b := &snap.Incidents[i], &snap.Incidents[j]
		if a.StartMs != b.StartMs {
			return a.StartMs > b.StartMs
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		return a.Series < b.Series
	})
	return snap
}

// Counts returns the number of pending and firing (rule, series)
// pairs — the sync-on-read alert gauges.
func (e *Engine) Counts() (pending, firing int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, m := range e.states {
		for _, st := range m {
			switch st.state {
			case StatePending:
				pending++
			case StateFiring:
				firing++
			}
		}
	}
	return pending, firing
}

// IncidentsTotal returns how many incidents have ever opened (closed
// plus still-open), monotone for counter export.
func (e *Engine) IncidentsTotal() uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.incidentsOpened
}

// FiringSpans returns the firing intervals of every rule watching
// metric, clipped to [fromMs, toMs] — the history-chart overlays.
func (e *Engine) FiringSpans(metric string, fromMs, toMs int64) []Span {
	e.mu.Lock()
	defer e.mu.Unlock()
	byRule := map[string]*Rule{}
	for i := range e.rules {
		if e.rules[i].Metric == metric {
			byRule[e.rules[i].Name] = &e.rules[i]
		}
	}
	if len(byRule) == 0 {
		return nil
	}
	var spans []Span
	add := func(inc *Incident) {
		if byRule[inc.Rule] == nil {
			return
		}
		start, end := inc.StartMs, inc.EndMs
		if end == 0 {
			end = toMs
		}
		if end < fromMs || start > toMs {
			return
		}
		if start < fromMs {
			start = fromMs
		}
		if end > toMs {
			end = toMs
		}
		spans = append(spans, Span{FromMs: start, ToMs: end, Rule: inc.Rule, Severity: inc.Severity})
	}
	for i := range e.closed {
		add(&e.closed[i])
	}
	for _, inc := range e.open {
		add(inc)
	}
	sort.Slice(spans, func(i, j int) bool {
		if spans[i].FromMs != spans[j].FromMs {
			return spans[i].FromMs < spans[j].FromMs
		}
		return spans[i].Rule < spans[j].Rule
	})
	return spans
}

// Close flushes and closes the incident log and every notifier.
func (e *Engine) Close() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	var first error
	if e.ilog != nil {
		if err := e.ilog.close(); err != nil && first == nil {
			first = err
		}
		e.ilog = nil
	}
	for _, n := range e.notifiers {
		if err := n.Close(); err != nil && first == nil {
			first = err
		}
	}
	e.notifiers = nil
	return first
}
