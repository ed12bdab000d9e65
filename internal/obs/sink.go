package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sync"
)

// Sink receives every emitted decision event. Implementations must be
// safe for concurrent Emit calls; errors are latched and reported by
// Close so the emit path stays cheap.
type Sink interface {
	Emit(e *DecisionEvent)
	Close() error
}

// MemorySink retains every event in order — the test double.
type MemorySink struct {
	mu     sync.Mutex
	events []DecisionEvent
}

// Emit implements Sink.
func (s *MemorySink) Emit(e *DecisionEvent) {
	s.mu.Lock()
	s.events = append(s.events, *e)
	s.mu.Unlock()
}

// Close implements Sink.
func (*MemorySink) Close() error { return nil }

// Events returns a copy of everything emitted so far.
func (s *MemorySink) Events() []DecisionEvent {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]DecisionEvent(nil), s.events...)
}

// JSONLSink writes one JSON object per line — the decision-log format
// cmd/dvfstrace consumes. Writes are buffered; the first write error is
// latched and returned by Close.
type JSONLSink struct {
	mu  sync.Mutex
	bw  *bufio.Writer
	err error
}

// NewJSONLSink wraps w in a buffered JSONL writer.
func NewJSONLSink(w io.Writer) *JSONLSink {
	return &JSONLSink{bw: bufio.NewWriter(w)}
}

// Emit implements Sink.
func (s *JSONLSink) Emit(e *DecisionEvent) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return
	}
	data, err := json.Marshal(e)
	if err == nil {
		_, err = s.bw.Write(append(data, '\n'))
	}
	if err != nil {
		s.err = fmt.Errorf("obs: writing JSONL event %d: %w", e.Seq, err)
	}
}

// Close flushes the buffer and reports the first error seen.
func (s *JSONLSink) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.bw.Flush(); err != nil && s.err == nil {
		s.err = fmt.Errorf("obs: flushing JSONL sink: %w", err)
	}
	return s.err
}

// ReadJSONL parses a decision log back into events. A malformed line is
// an error naming its line number — an analysis tool must not silently
// skip corrupt data.
func ReadJSONL(r io.Reader) ([]DecisionEvent, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	var out []DecisionEvent
	line := 0
	for sc.Scan() {
		line++
		text := sc.Bytes()
		if len(text) == 0 {
			continue
		}
		var e DecisionEvent
		if err := json.Unmarshal(text, &e); err != nil {
			return nil, fmt.Errorf("obs: decision log line %d: %w", line, err)
		}
		out = append(out, e)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("obs: reading decision log: %w", err)
	}
	return out, nil
}

// ChromeTraceSink writes the Chrome trace-event format (the JSON
// object form with a traceEvents array), so a run opens directly in
// chrome://tracing or Perfetto. Each decision becomes a complete ("X")
// event on the thread row of its chosen DVFS level — the timeline
// therefore reads as per-level occupancy — and a deadline miss
// additionally emits a global instant event where the job ended. A
// completed simulated job (DeadlineSec > 0) spans its predictor time,
// its measured transition and its execution, i.e. its simulated wall
// time; other events use the switch estimate, the only one they have.
type ChromeTraceSink struct {
	mu    sync.Mutex
	bw    *bufio.Writer
	err   error
	first bool
	named map[int]bool
}

// NewChromeTraceSink starts the trace document on w.
func NewChromeTraceSink(w io.Writer) *ChromeTraceSink {
	s := &ChromeTraceSink{bw: bufio.NewWriter(w), first: true, named: map[int]bool{}}
	s.write(`{"displayTimeUnit":"ms","traceEvents":[`)
	return s
}

func (s *ChromeTraceSink) write(text string) {
	if s.err != nil {
		return
	}
	if _, err := s.bw.WriteString(text); err != nil {
		s.err = fmt.Errorf("obs: writing chrome trace: %w", err)
	}
}

func (s *ChromeTraceSink) sep() {
	if s.first {
		s.first = false
		return
	}
	s.write(",")
}

// Emit implements Sink.
func (s *ChromeTraceSink) Emit(e *DecisionEvent) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.named[e.Level] {
		s.named[e.Level] = true
		s.sep()
		s.write(fmt.Sprintf(`{"name":"thread_name","ph":"M","pid":1,"tid":%d,"args":{"name":"level %d"}}`,
			e.Level, e.Level))
	}
	switchSec := e.SwitchSec
	if e.Done && e.DeadlineSec > 0 {
		switchSec = e.MeasSwitchSec
	}
	dur := e.PredictorSec + switchSec
	if e.Done {
		dur += e.ActualExecSec
	} else if e.Predicted {
		dur += e.PredictedExecSec
	}
	args, err := json.Marshal(e)
	if err != nil {
		if s.err == nil {
			s.err = fmt.Errorf("obs: encoding chrome trace args: %w", err)
		}
		return
	}
	s.sep()
	s.write(fmt.Sprintf(`{"name":"%s#%d","ph":"X","ts":%.3f,"dur":%.3f,"pid":1,"tid":%d,"args":{"decision":%s}}`,
		e.Workload, e.Job, e.TimeSec*1e6, dur*1e6, e.Level, args))
	if e.Missed {
		s.sep()
		s.write(fmt.Sprintf(`{"name":"deadline miss %s#%d","ph":"i","s":"g","ts":%.3f,"pid":1,"tid":%d}`,
			e.Workload, e.Job, (e.TimeSec+dur)*1e6, e.Level))
	}
}

// Close terminates the trace document and reports the first error.
func (s *ChromeTraceSink) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.write("]}\n")
	if err := s.bw.Flush(); err != nil && s.err == nil {
		s.err = fmt.Errorf("obs: flushing chrome trace: %w", err)
	}
	return s.err
}
