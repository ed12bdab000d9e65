package trace

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/obs"
)

// fullEvent returns an event with every DecisionEvent field set to a
// distinctive non-zero value — including the PR 4/5 release/deadline/
// from-level/span fields and a negative-zero float, the values most
// likely to be dropped by a sloppy codec.
func fullEvent() obs.DecisionEvent {
	return obs.DecisionEvent{
		Seq:              12345678901,
		Workload:         "ldecode",
		Governor:         "prediction",
		Device:           "dev-00042",
		Platform:         "biglittle",
		Job:              17,
		TimeSec:          1.234567890123456,
		ReleaseSec:       1.2,
		DeadlineSec:      1.2333333333333334,
		FeatHash:         0xdeadbeefcafef00d,
		Predicted:        true,
		TFminSec:         0.0123456789,
		TFmaxSec:         0.0023456789,
		PredictedExecSec: 0.004444444444444444,
		Level:            3,
		FreqKHz:          1400000,
		FromLevel:        7,
		Margin:           0.1,
		BudgetSec:        1.0 / 30,
		EffBudgetSec:     0.03301,
		PredictorSec:     1.5e-5,
		SwitchSec:        5.3e-5,
		MeasSwitchSec:    math.Copysign(0, -1), // -0.0 must survive bit-identically
		Done:             true,
		ActualExecSec:    0.0045,
		ResidualSec:      5.555555555555556e-5,
		Missed:           true,
		Spans: []obs.Span{
			{Name: "decision", Depth: 0, StartSec: 0, DurSec: 0.0301},
			{Name: "slice", Depth: 1, StartSec: 0, DurSec: 1.1e-5},
			{Name: "predict", Depth: 1, StartSec: 1.1e-5, DurSec: 4.0e-6},
			{Name: "exec", Depth: 1, StartSec: 2.0e-5, DurSec: 0.03},
		},
		SpanTotalSec: 0.0301,
	}
}

// mkEvents builds n realistic fleet-shaped events: full-mantissa
// floats, strings repeating across devices (what interning exploits),
// head-sampled spans, the occasional baseline event with most fields
// absent.
func mkEvents(n int) []obs.DecisionEvent {
	rng := rand.New(rand.NewSource(42))
	workloads := []string{"sha", "ldecode", "rijndael"}
	platforms := []string{"a7", "x86", "biglittle"}
	out := make([]obs.DecisionEvent, n)
	for i := range out {
		e := obs.DecisionEvent{
			Seq:      uint64(i + 1),
			Workload: workloads[i%len(workloads)],
			Governor: "prediction",
			Device:   "dev-" + strings.Repeat("0", 3) + string(rune('a'+i/1000%26)) + string(rune('a'+i/40%26)),
			Platform: platforms[(i/40)%len(platforms)],
			Job:      i % 20,
			TimeSec:  rng.Float64() * 100,
			FeatHash: rng.Uint64(),
			Level:    rng.Intn(8),
			FreqKHz:  int64(200000 + 100000*rng.Intn(12)),
			Done:     true,
		}
		e.ReleaseSec = e.TimeSec
		e.DeadlineSec = e.TimeSec + 1.0/30
		if i%7 != 0 { // predicted events carry the full field set
			e.Predicted = true
			e.TFminSec = rng.Float64() * 0.1
			e.TFmaxSec = rng.Float64() * 0.01
			e.PredictedExecSec = rng.Float64() * 0.03
			e.FromLevel = rng.Intn(8)
			e.Margin = 0.1
			e.BudgetSec = 1.0 / 30
			e.EffBudgetSec = rng.Float64() * 0.03
			e.PredictorSec = rng.Float64() * 1e-4
			e.SwitchSec = rng.Float64() * 1e-4
			e.MeasSwitchSec = rng.Float64() * 1e-4
			e.ActualExecSec = rng.Float64() * 0.03
			e.ResidualSec = (rng.Float64() - 0.5) * 1e-3
			e.Missed = rng.Intn(50) == 0
		}
		if i%16 == 0 { // head-sampled span ledger
			e.Spans = []obs.Span{
				{Name: "decision", Depth: 0, StartSec: 0, DurSec: rng.Float64() * 0.03},
				{Name: "slice", Depth: 1, StartSec: 0, DurSec: rng.Float64() * 1e-5},
				{Name: "predict", Depth: 1, StartSec: rng.Float64() * 1e-5, DurSec: rng.Float64() * 1e-5},
				{Name: "exec", Depth: 1, StartSec: rng.Float64() * 1e-4, DurSec: rng.Float64() * 0.03},
			}
			e.SpanTotalSec = e.Spans[0].DurSec
		}
		out[i] = e
	}
	return out
}

// eventsBitEqual compares two events field by field using the IEEE-754
// bit pattern for floats, so -0 vs +0 and NaN payload differences are
// caught (reflect.DeepEqual would miss the former and reject the
// latter).
func eventsBitEqual(a, b *obs.DecisionEvent) bool {
	fb := math.Float64bits
	if a.Seq != b.Seq || a.Workload != b.Workload || a.Governor != b.Governor ||
		a.Device != b.Device || a.Platform != b.Platform || a.Job != b.Job ||
		fb(a.TimeSec) != fb(b.TimeSec) || fb(a.ReleaseSec) != fb(b.ReleaseSec) ||
		fb(a.DeadlineSec) != fb(b.DeadlineSec) || a.FeatHash != b.FeatHash ||
		a.Predicted != b.Predicted || fb(a.TFminSec) != fb(b.TFminSec) ||
		fb(a.TFmaxSec) != fb(b.TFmaxSec) || fb(a.PredictedExecSec) != fb(b.PredictedExecSec) ||
		a.Level != b.Level || a.FreqKHz != b.FreqKHz || a.FromLevel != b.FromLevel ||
		fb(a.Margin) != fb(b.Margin) || fb(a.BudgetSec) != fb(b.BudgetSec) ||
		fb(a.EffBudgetSec) != fb(b.EffBudgetSec) || fb(a.PredictorSec) != fb(b.PredictorSec) ||
		fb(a.SwitchSec) != fb(b.SwitchSec) || fb(a.MeasSwitchSec) != fb(b.MeasSwitchSec) ||
		a.Done != b.Done || fb(a.ActualExecSec) != fb(b.ActualExecSec) ||
		fb(a.ResidualSec) != fb(b.ResidualSec) || a.Missed != b.Missed ||
		fb(a.SpanTotalSec) != fb(b.SpanTotalSec) || len(a.Spans) != len(b.Spans) {
		return false
	}
	for i := range a.Spans {
		sa, sb := &a.Spans[i], &b.Spans[i]
		if sa.Name != sb.Name || sa.Depth != sb.Depth ||
			fb(sa.StartSec) != fb(sb.StartSec) || fb(sa.DurSec) != fb(sb.DurSec) {
			return false
		}
	}
	return true
}

func requireBitEqual(t *testing.T, got, want []obs.DecisionEvent) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("event count: got %d, want %d", len(got), len(want))
	}
	for i := range want {
		if !eventsBitEqual(&got[i], &want[i]) {
			t.Fatalf("event %d differs:\n got  %+v\n want %+v", i, got[i], want[i])
		}
	}
}

func TestBinaryRoundTripAllFields(t *testing.T) {
	events := []obs.DecisionEvent{
		fullEvent(),
		{}, // fully-zero event: presence bitmap 0, empty strings
		{Seq: 2, Workload: "sha", Predicted: true, TFminSec: -1.5, Level: -3, FreqKHz: -7, Job: -1},
		fullEvent(), // repeated strings exercise the intern back-reference path
	}
	events[3].Seq = 99

	var buf bytes.Buffer
	if err := WriteBinary(&buf, events); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBinary(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	requireBitEqual(t, got, events)
	if math.Signbit(got[0].MeasSwitchSec) != true || got[0].MeasSwitchSec != 0 {
		t.Fatalf("negative zero did not survive: got %v (bits %#x)",
			got[0].MeasSwitchSec, math.Float64bits(got[0].MeasSwitchSec))
	}
}

func TestBinaryEmptyTrace(t *testing.T) {
	var buf bytes.Buffer
	if err := NewBinaryWriter(&buf).Close(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBinary(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("empty trace decoded %d events", len(got))
	}
}

// TestBinaryJSONLEquivalence is the golden round-trip: the same events
// serialized as JSONL and as binary must decode (through the
// format-sniffing ReadEvents) to bit-identical streams, and
// binary→JSONL→binary must be lossless.
func TestBinaryJSONLEquivalence(t *testing.T) {
	last := fullEvent()
	// JSONL cannot carry -0.0: omitempty treats it as zero and drops
	// the field. The binary-only round trip (above) covers -0; the
	// cross-format equivalence uses a JSONL-representable value.
	last.MeasSwitchSec = 4.2e-5
	events := append(mkEvents(500), last)

	var jsonl bytes.Buffer
	sink := obs.NewJSONLSink(&jsonl)
	for i := range events {
		sink.Emit(&events[i])
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	var bin bytes.Buffer
	if err := WriteBinary(&bin, events); err != nil {
		t.Fatal(err)
	}

	fromJSONL, err := ReadEvents(bytes.NewReader(jsonl.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	fromBin, err := ReadEvents(bytes.NewReader(bin.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	requireBitEqual(t, fromJSONL, events)
	requireBitEqual(t, fromBin, events)

	// The export path: binary → JSONL → binary loses nothing.
	var exported bytes.Buffer
	exp := obs.NewJSONLSink(&exported)
	for i := range fromBin {
		exp.Emit(&fromBin[i])
	}
	if err := exp.Close(); err != nil {
		t.Fatal(err)
	}
	reread, err := ReadEvents(bytes.NewReader(exported.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	requireBitEqual(t, reread, events)
}

// TestBinarySizeRatio enforces the acceptance bound: binary traces
// must be at least 5x smaller than the same events as JSONL, measured
// on fleet-shaped events with full-mantissa floats (the binary
// format's worst case — real traces intern better).
func TestBinarySizeRatio(t *testing.T) {
	events := mkEvents(4000)
	var jsonl, bin bytes.Buffer
	sink := obs.NewJSONLSink(&jsonl)
	for i := range events {
		sink.Emit(&events[i])
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	if err := WriteBinary(&bin, events); err != nil {
		t.Fatal(err)
	}
	ratio := float64(jsonl.Len()) / float64(bin.Len())
	t.Logf("jsonl %d B (%.0f B/event), binary %d B (%.0f B/event), ratio %.2fx",
		jsonl.Len(), float64(jsonl.Len())/float64(len(events)),
		bin.Len(), float64(bin.Len())/float64(len(events)), ratio)
	if ratio < 5 {
		t.Fatalf("binary must be >=5x smaller than JSONL, got %.2fx", ratio)
	}
}

func TestBinaryCorruptionDetected(t *testing.T) {
	events := mkEvents(100)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, events); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()

	cases := map[string][]byte{
		"truncated mid-block":  full[:len(full)/2],
		"missing footer":       full[:len(full)-3],
		"bad magic":            append([]byte("NOTATRACE"), full...),
		"empty file":           {},
		"magic only":           []byte(binMagic),
		"garbage after header": append([]byte(binMagic), 0xff, 0xff, 0xff),
	}
	for name, data := range cases {
		if _, err := ReadBinary(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: decode succeeded, want error", name)
		}
	}
}

func TestReadEventsSniffsJSONL(t *testing.T) {
	events := mkEvents(10)
	var jsonl bytes.Buffer
	sink := obs.NewJSONLSink(&jsonl)
	for i := range events {
		sink.Emit(&events[i])
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadEvents(bytes.NewReader(jsonl.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	requireBitEqual(t, got, events)
}

// FuzzBinaryDecode feeds arbitrary bytes to the binary reader: it must
// reject or decode, never panic or OOM; anything it accepts must
// re-encode and decode to the same events (decode∘encode idempotent).
func FuzzBinaryDecode(f *testing.F) {
	var seed bytes.Buffer
	if err := WriteBinary(&seed, append(mkEvents(20), fullEvent())); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	var empty bytes.Buffer
	if err := NewBinaryWriter(&empty).Close(); err != nil {
		f.Fatal(err)
	}
	f.Add(empty.Bytes())
	f.Add([]byte(binMagic))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		events, err := ReadBinary(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteBinary(&buf, events); err != nil {
			t.Fatalf("re-encoding accepted events: %v", err)
		}
		again, err := ReadBinary(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-decoding own output: %v", err)
		}
		requireBitEqual(t, again, events)
	})
}

// FuzzBinaryEventRoundTrip fuzzes the field values themselves —
// arbitrary bit patterns (including NaN payloads and negative zero via
// frombits) must survive encode→decode bit-identically.
func FuzzBinaryEventRoundTrip(f *testing.F) {
	f.Add(uint64(1), "sha", "prediction", "dev-1", "a7", int64(3),
		uint64(0x3ff0000000000001), uint64(0x8000000000000000), uint64(0x7ff8000000000001),
		int64(1400000), true, true, false)
	f.Add(uint64(1<<63), "", "", "", "", int64(-9), uint64(0), uint64(1), uint64(math.MaxUint64),
		int64(math.MinInt64), false, false, true)

	f.Fuzz(func(t *testing.T, seq uint64, workload, governor, device, platform string,
		job int64, timeBits, marginBits, residualBits uint64, freq int64,
		predicted, done, missed bool) {
		e := obs.DecisionEvent{
			Seq: seq, Workload: workload, Governor: governor,
			Device: device, Platform: platform, Job: int(job),
			TimeSec:     math.Float64frombits(timeBits),
			Margin:      math.Float64frombits(marginBits),
			ResidualSec: math.Float64frombits(residualBits),
			FreqKHz:     freq,
			Predicted:   predicted, Done: done, Missed: missed,
			Spans: []obs.Span{{Name: workload, Depth: int(job), StartSec: math.Float64frombits(marginBits)}},
		}
		var buf bytes.Buffer
		if err := WriteBinary(&buf, []obs.DecisionEvent{e}); err != nil {
			t.Fatal(err)
		}
		got, err := ReadBinary(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		requireBitEqual(t, got, []obs.DecisionEvent{e})
	})
}

// TestBinaryEncodeZeroAlloc is the runtime half of the encoder's
// hotpathalloc guarantee: once the block buffer has grown and the
// string table holds the trace's vocabulary, encoding an event
// performs no heap allocation. Wired into `make alloc-gate` and CI.
func TestBinaryEncodeZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("AllocsPerRun is not meaningful under the race detector")
	}
	bw := NewBinaryWriter(&bytes.Buffer{})
	// Keep the measured emits inside one block: no flush, no I/O.
	bw.blockEvents = 1 << 30
	bw.blockBytes = 1 << 30

	e := fullEvent()
	for i := 0; i < 4096; i++ { // grow the buffer well past what the runs append
		e.Seq++
		bw.Emit(&e)
	}
	bw.buf = bw.buf[:0] // steady state: capacity retained, vocabulary interned
	bw.events = 0

	allocs := testing.AllocsPerRun(500, func() {
		e.Seq++
		bw.Emit(&e)
	})
	if allocs != 0 {
		t.Fatalf("binary encode allocated %.1f times per event; hot path must be allocation-free", allocs)
	}
}
