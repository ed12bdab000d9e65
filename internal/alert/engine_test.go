package alert

import (
	"bytes"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/tsdb"
)

// captureNotifier records every notification it receives.
type captureNotifier struct {
	mu  sync.Mutex
	got []Transition
}

func (c *captureNotifier) Notify(t Transition) {
	c.mu.Lock()
	c.got = append(c.got, t)
	c.mu.Unlock()
}

func (c *captureNotifier) Close() error { return nil }

func (c *captureNotifier) transitions() []Transition {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Transition(nil), c.got...)
}

// fakeQuerier scripts a single-series response for unit tests that do
// not need a real store.
type fakeQuerier struct {
	res []tsdb.SeriesResult
	err error
}

func (f *fakeQuerier) Query(tsdb.Query) ([]tsdb.SeriesResult, error) { return f.res, f.err }

// setPoints scripts one series named m with the given (ms, value)
// points.
func (f *fakeQuerier) setPoints(m string, pts ...tsdb.Point) {
	f.res = []tsdb.SeriesResult{{Meta: tsdb.SeriesMeta{Metric: m}, Points: pts}}
}

func at(baseMs int64, sec int) time.Time {
	return time.UnixMilli(baseMs + int64(sec)*1000)
}

// TestBuiltinLifecycleAndRestart is the acceptance e2e: scripted tsdb
// series drive the built-in drift and energy-budget rules through
// pending→firing→resolved, and a restart mid-firing replays the open
// incidents from the incident log without re-notifying.
func TestBuiltinLifecycleAndRestart(t *testing.T) {
	store, err := tsdb.Open(tsdb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	const baseMs = int64(1_700_000_000_000)
	under := store.Series("dvfsd_model_under_rate", tsdb.Label{Name: "workload", Value: "sha"})
	burn := store.Series("dvfsd_energy_budget_burn",
		tsdb.Label{Name: "device", Value: "d0"},
		tsdb.Label{Name: "window", Value: "slow"},
		tsdb.Label{Name: "workload", Value: "sha"})

	rules := BuiltinRules(BuiltinOptions{Scrape: time.Second, EnergyBudget: true})
	logPath := filepath.Join(t.TempDir(), "incidents.jsonl")
	cap1 := &captureNotifier{}
	eng, err := New(Config{Querier: store, Rules: rules, Notifiers: []Notifier{cap1}, IncidentLog: logPath})
	if err != nil {
		t.Fatal(err)
	}

	// Healthy tick: nothing happens.
	under.Append(baseMs, 0.01)
	burn.Append(baseMs, 0.2)
	eng.Eval(at(baseMs, 0))
	if p, f := eng.Counts(); p != 0 || f != 0 {
		t.Fatalf("healthy eval: pending=%d firing=%d, want 0/0", p, f)
	}

	// Breach: pending first (For = 2×scrape = 2s), firing after it holds.
	for sec := 1; sec <= 3; sec++ {
		ms := baseMs + int64(sec)*1000
		under.Append(ms, 0.2)
		burn.Append(ms, 1.5)
		eng.Eval(at(baseMs, sec))
	}
	if p, f := eng.Counts(); p != 0 || f != 2 {
		t.Fatalf("after 3 breaching evals: pending=%d firing=%d, want 0/2", p, f)
	}
	var firing int
	for _, tr := range cap1.transitions() {
		if tr.To == StateFiring {
			firing++
		}
	}
	if firing != 2 {
		t.Fatalf("notified firing transitions = %d, want 2", firing)
	}
	snap := eng.Snapshot()
	if len(snap.Incidents) != 2 {
		t.Fatalf("open incidents = %d, want 2", len(snap.Incidents))
	}
	for _, inc := range snap.Incidents {
		if inc.EndMs != 0 {
			t.Fatalf("incident %s closed prematurely", inc.Rule)
		}
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart: the replayed engine is firing without notifying anyone.
	cap2 := &captureNotifier{}
	eng2, err := New(Config{Querier: store, Rules: rules, Notifiers: []Notifier{cap2}, IncidentLog: logPath})
	if err != nil {
		t.Fatal(err)
	}
	defer eng2.Close()
	if p, f := eng2.Counts(); p != 0 || f != 2 {
		t.Fatalf("after restart: pending=%d firing=%d, want 0/2", p, f)
	}
	if got := eng2.IncidentsTotal(); got != 2 {
		t.Fatalf("after restart: incidents total = %d, want 2", got)
	}
	if n := len(cap2.transitions()); n != 0 {
		t.Fatalf("restart re-notified %d transitions", n)
	}

	// Recovery: each resolves under its hysteresis clear boundary
	// (model_stale at half its threshold, energy burn at 0.5).
	ms := baseMs + 4000
	under.Append(ms, 0.01)
	burn.Append(ms, 0.3)
	eng2.Eval(at(baseMs, 4))
	if p, f := eng2.Counts(); p != 0 || f != 0 {
		t.Fatalf("after recovery: pending=%d firing=%d, want 0/0", p, f)
	}
	resolved := 0
	for _, tr := range cap2.transitions() {
		if tr.To == StateResolved {
			resolved++
		}
	}
	if resolved != 2 {
		t.Fatalf("resolved notifications = %d, want 2", resolved)
	}
	snap = eng2.Snapshot()
	if len(snap.Incidents) != 2 {
		t.Fatalf("incidents after resolve = %d, want 2", len(snap.Incidents))
	}
	for _, inc := range snap.Incidents {
		if inc.EndMs == 0 {
			t.Fatalf("incident %s still open after resolve", inc.Rule)
		}
	}

	// The firing interval shows up as a chart overlay span.
	spans := eng2.FiringSpans("dvfsd_model_under_rate", baseMs, baseMs+10_000)
	if len(spans) != 1 {
		t.Fatalf("firing spans = %v, want one", spans)
	}
	if spans[0].FromMs != baseMs+3000 || spans[0].ToMs != baseMs+4000 {
		t.Fatalf("span [%d, %d], want [%d, %d]",
			spans[0].FromMs, spans[0].ToMs, baseMs+3000, baseMs+4000)
	}
}

func TestHysteresisHoldsUntilClear(t *testing.T) {
	q := &fakeQuerier{}
	clear := 5.0
	eng, err := New(Config{Querier: q, Rules: []Rule{{
		Name: "hys", Metric: "m", Agg: "last", Window: Duration(10 * time.Second),
		Threshold: 10, Clear: &clear,
	}}})
	if err != nil {
		t.Fatal(err)
	}
	const baseMs = int64(1_700_000_000_000)
	steps := []struct {
		v      float64
		firing int
	}{
		{12, 1}, // breach → firing (For = 0)
		{7, 1},  // below threshold but above clear: held
		{4, 0},  // under clear: resolved
	}
	for i, s := range steps {
		q.setPoints("m", tsdb.Point{T: baseMs + int64(i)*1000, V: s.v})
		eng.Eval(at(baseMs, i))
		if _, f := eng.Counts(); f != s.firing {
			t.Fatalf("step %d (v=%g): firing=%d, want %d", i, s.v, f, s.firing)
		}
	}
}

func TestKeepForSuppressesFlaps(t *testing.T) {
	q := &fakeQuerier{}
	eng, err := New(Config{Querier: q, Rules: []Rule{{
		Name: "flap", Metric: "m", Agg: "last", Window: Duration(10 * time.Second),
		Threshold: 1, KeepFor: Duration(5 * time.Second),
	}}})
	if err != nil {
		t.Fatal(err)
	}
	const baseMs = int64(1_700_000_000_000)
	q.setPoints("m", tsdb.Point{T: baseMs, V: 2})
	eng.Eval(at(baseMs, 0)) // fires
	q.setPoints("m", tsdb.Point{T: baseMs + 1000, V: 0})
	eng.Eval(at(baseMs, 1)) // cleared but inside KeepFor: held
	if _, f := eng.Counts(); f != 1 {
		t.Fatalf("cleared inside KeepFor: firing=%d, want 1", f)
	}
	q.setPoints("m", tsdb.Point{T: baseMs + 6000, V: 0})
	eng.Eval(at(baseMs, 6)) // KeepFor elapsed: resolves
	if _, f := eng.Counts(); f != 0 {
		t.Fatalf("cleared past KeepFor: firing=%d, want 0", f)
	}
}

// The engine writes exactly one log record per firing or resolved
// transition, carrying the rule's summary; pending steps log nothing.
func TestTransitionLoggedOnce(t *testing.T) {
	var buf bytes.Buffer
	q := &fakeQuerier{}
	eng, err := New(Config{Querier: q, Log: slog.New(slog.NewTextHandler(&buf, nil)), Rules: []Rule{{
		Name: "once", Metric: "m", Agg: "last", Window: Duration(10 * time.Second),
		Threshold: 1, For: Duration(time.Second), Summary: "m is high",
	}}})
	if err != nil {
		t.Fatal(err)
	}
	const baseMs = int64(1_700_000_000_000)
	for sec, v := range []float64{2, 2, 0} { // pending, firing, resolved
		q.setPoints("m", tsdb.Point{T: baseMs + int64(sec)*1000, V: v})
		eng.Eval(at(baseMs, sec))
	}
	var records []string
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		if strings.Contains(line, "rule=once") {
			records = append(records, line)
		}
	}
	if len(records) != 2 {
		t.Fatalf("%d records name the rule, want 2:\n%s", len(records), buf.String())
	}
	for i, to := range []string{"firing", "resolved"} {
		if !strings.Contains(records[i], `level=WARN msg="ALERT `+to+`"`) ||
			!strings.Contains(records[i], `summary="m is high"`) {
			t.Errorf("record %d = %q, want a WARN ALERT %s with the summary", i, records[i], to)
		}
	}
}

func TestPendingClearsSilently(t *testing.T) {
	q := &fakeQuerier{}
	cap := &captureNotifier{}
	eng, err := New(Config{Querier: q, Notifiers: []Notifier{cap}, Rules: []Rule{{
		Name: "p", Metric: "m", Agg: "last", Window: Duration(10 * time.Second),
		Threshold: 1, For: Duration(5 * time.Second),
	}}})
	if err != nil {
		t.Fatal(err)
	}
	const baseMs = int64(1_700_000_000_000)
	q.setPoints("m", tsdb.Point{T: baseMs, V: 2})
	eng.Eval(at(baseMs, 0))
	if p, _ := eng.Counts(); p != 1 {
		t.Fatalf("pending=%d, want 1", p)
	}
	q.setPoints("m", tsdb.Point{T: baseMs + 1000, V: 0})
	eng.Eval(at(baseMs, 1))
	if p, f := eng.Counts(); p != 0 || f != 0 {
		t.Fatalf("after clear: pending=%d firing=%d", p, f)
	}
	// A pending blip never reaches the notifiers.
	if n := len(cap.transitions()); n != 0 {
		t.Fatalf("pending blip notified %d transitions", n)
	}
}

func TestBurnRateRule(t *testing.T) {
	q := &fakeQuerier{}
	zero := 0.0
	eng, err := New(Config{Querier: q, Rules: []Rule{{
		Name: "drops", Kind: KindBurnRate, Metric: "c",
		Window: Duration(10 * time.Second), Threshold: 0, Clear: &zero,
	}}})
	if err != nil {
		t.Fatal(err)
	}
	const baseMs = int64(1_700_000_000_000)
	// Counter climbing 10/s, with a reset in the middle (clamped).
	q.setPoints("c",
		tsdb.Point{T: baseMs, V: 100},
		tsdb.Point{T: baseMs + 1000, V: 110},
		tsdb.Point{T: baseMs + 2000, V: 5}, // reset
		tsdb.Point{T: baseMs + 3000, V: 15},
	)
	eng.Eval(at(baseMs, 3))
	if _, f := eng.Counts(); f != 1 {
		t.Fatalf("increasing counter: firing=%d, want 1", f)
	}
	// Flat counter: rate 0 is not > 0, and clears at the 0 boundary.
	q.setPoints("c",
		tsdb.Point{T: baseMs + 4000, V: 15},
		tsdb.Point{T: baseMs + 8000, V: 15},
	)
	eng.Eval(at(baseMs, 8))
	if _, f := eng.Counts(); f != 0 {
		t.Fatalf("flat counter: firing=%d, want 0", f)
	}
}

func TestAbsenceRule(t *testing.T) {
	q := &fakeQuerier{}
	eng, err := New(Config{Querier: q, Rules: []Rule{{
		Name: "dead", Kind: KindAbsence, Metric: "m", Window: Duration(10 * time.Second),
	}}})
	if err != nil {
		t.Fatal(err)
	}
	const baseMs = int64(1_700_000_000_000)
	eng.Eval(at(baseMs, 0)) // no samples at all
	if _, f := eng.Counts(); f != 1 {
		t.Fatalf("no samples: firing=%d, want 1", f)
	}
	q.setPoints("m", tsdb.Point{T: baseMs + 1000, V: 3})
	eng.Eval(at(baseMs, 1))
	if _, f := eng.Counts(); f != 0 {
		t.Fatalf("samples present: firing=%d, want 0", f)
	}
}

func TestDeltaRule(t *testing.T) {
	q := &fakeQuerier{}
	eng, err := New(Config{Querier: q, Rules: []Rule{{
		Name: "jump", Kind: KindDelta, Metric: "m",
		Window: Duration(10 * time.Second), Threshold: 5,
	}}})
	if err != nil {
		t.Fatal(err)
	}
	const baseMs = int64(1_700_000_000_000)
	q.setPoints("m", tsdb.Point{T: baseMs, V: 1}, tsdb.Point{T: baseMs + 2000, V: 9})
	eng.Eval(at(baseMs, 2))
	if _, f := eng.Counts(); f != 1 {
		t.Fatalf("delta 8 > 5: firing=%d, want 1", f)
	}
}

func TestVanishedSeriesResolves(t *testing.T) {
	q := &fakeQuerier{}
	eng, err := New(Config{Querier: q, Rules: []Rule{{
		Name: "v", Metric: "m", Agg: "last", Window: Duration(10 * time.Second), Threshold: 1,
	}}})
	if err != nil {
		t.Fatal(err)
	}
	const baseMs = int64(1_700_000_000_000)
	q.setPoints("m", tsdb.Point{T: baseMs, V: 2})
	eng.Eval(at(baseMs, 0))
	if _, f := eng.Counts(); f != 1 {
		t.Fatalf("firing=%d, want 1", f)
	}
	q.res = nil // series aged out of the store entirely
	eng.Eval(at(baseMs, 1))
	if _, f := eng.Counts(); f != 0 {
		t.Fatalf("vanished series: firing=%d, want 0", f)
	}
}

func TestQueryErrorsCounted(t *testing.T) {
	q := &fakeQuerier{err: os.ErrDeadlineExceeded}
	eng, err := New(Config{Querier: q, Rules: []Rule{{
		Name: "e", Metric: "m", Window: Duration(time.Second),
	}}})
	if err != nil {
		t.Fatal(err)
	}
	eng.Eval(at(1_700_000_000_000, 0))
	if snap := eng.Snapshot(); snap.QueryErrors != 1 || snap.Evals != 1 {
		t.Fatalf("evals=%d errors=%d, want 1/1", snap.Evals, snap.QueryErrors)
	}
}

func TestIncidentLogToleratesTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "inc.jsonl")
	good := `{"time_ms":1700000000000,"rule":"r","series":"m","from":"pending","to":"firing","value":3,"severity":"warn"}` + "\n"
	torn := `{"time_ms":1700000001000,"rule":"r","ser` // crash mid-append
	if err := os.WriteFile(path, []byte(good+torn), 0o644); err != nil {
		t.Fatal(err)
	}
	eng, err := New(Config{Querier: &fakeQuerier{}, IncidentLog: path, Rules: []Rule{{
		Name: "r", Metric: "m", Window: Duration(time.Second),
	}}})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if _, f := eng.Counts(); f != 1 {
		t.Fatalf("replayed firing=%d, want 1", f)
	}
	snap := eng.Snapshot()
	if len(snap.Incidents) != 1 || snap.Incidents[0].EndMs != 0 {
		t.Fatalf("incidents = %+v, want one open", snap.Incidents)
	}
}

func TestDuplicateRuleNamesRejected(t *testing.T) {
	_, err := New(Config{Querier: &fakeQuerier{}, Rules: []Rule{
		{Name: "x", Metric: "m", Window: Duration(time.Second)},
		{Name: "x", Metric: "m2", Window: Duration(time.Second)},
	}})
	if err == nil {
		t.Fatal("duplicate rule names accepted")
	}
}
