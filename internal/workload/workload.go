// Package workload rebuilds the paper's eight interactive benchmarks
// (Table 2) as programs in the task IR, each with a deterministic
// input generator. The real benchmarks are C applications; what the
// predictor exploits is the *structure* of their execution-time
// variation — control flow driven by job inputs and program state — so
// each model reproduces that structure and is calibrated so its
// min/avg/max job times at maximum frequency match Table 2.
package workload

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"repro/internal/taskir"
)

// InputGen produces per-job input parameter values. Implementations
// are deterministic functions of the construction seed and job index.
type InputGen interface {
	// Next returns the parameter map for job i. The returned map is
	// owned by the caller.
	Next(i int) map[string]int64
}

// Workload couples a task program with its input model and reference
// data from the paper.
type Workload struct {
	// Name is the paper's benchmark name ("ldecode").
	Name string
	// Desc is the paper's description ("H.264 decoder").
	Desc string
	// TaskDesc describes one job ("Decode one frame").
	TaskDesc string
	// Prog is the annotated task (the code between the paper's
	// start_task/end_task pragmas).
	Prog *taskir.Program
	// NewGen builds a deterministic input generator.
	NewGen func(seed int64) InputGen
	// DefaultBudgetSec is the paper's evaluation budget: 50 ms, or 4 s
	// for pocketsphinx (§5.2).
	DefaultBudgetSec float64
	// RefMinMS/RefAvgMS/RefMaxMS are Table 2's job-time statistics at
	// maximum frequency, used for calibration checks.
	RefMinMS, RefAvgMS, RefMaxMS float64
	// EvalJobs is the number of jobs per evaluation run.
	EvalJobs int
	// InputsKnownAhead reports whether a job's inputs exist before the
	// previous job finishes (buffered bitstreams, queued data) — the
	// precondition for the pipelined predictor placement of §4.3.
	// Tasks driven by real-time user input cannot know inputs ahead.
	InputsKnownAhead bool
	// Hints lists programmer-provided feature hints (§3.5): per-job
	// metadata a developer can extract cheaply (file headers, payload
	// descriptors) that may correlate with execution time beyond what
	// control flow exposes. Each entry names a job parameter.
	Hints []Hint
}

// Hint is a programmer-provided feature: the value of a job input
// parameter exposed directly to the execution-time model (§3.5).
type Hint struct {
	// Name labels the hint in model output ("coeffEnergy").
	Name string
	// Param is the job parameter carrying the value.
	Param string
}

// FreshGlobals returns a copy of the program's initial global state for
// a new run.
func (w *Workload) FreshGlobals() map[string]int64 {
	g := make(map[string]int64, len(w.Prog.Globals))
	for k, v := range w.Prog.Globals {
		g[k] = v
	}
	return g
}

// constructors lists the eight benchmarks in the paper's
// (alphabetical) order, each with the name its constructor gives it.
var constructors = []struct {
	name string
	mk   func() *Workload
}{
	{"2048", Game2048},
	{"curseofwar", CurseOfWar},
	{"ldecode", LDecode},
	{"pocketsphinx", PocketSphinx},
	{"rijndael", Rijndael},
	{"sha", SHA},
	{"uzbl", Uzbl},
	{"xpilot", XPilot},
}

// All returns the eight benchmarks in the paper's (alphabetical) order.
func All() []*Workload {
	ws := make([]*Workload, len(constructors))
	for i, c := range constructors {
		ws[i] = c.mk()
	}
	return ws
}

// ByName builds only the named workload, or returns an error listing
// valid names.
func ByName(name string) (*Workload, error) {
	for _, c := range constructors {
		if c.name == name {
			return c.mk(), nil
		}
	}
	names := make([]string, len(constructors))
	for i, c := range constructors {
		names[i] = c.name
	}
	return nil, fmt.Errorf("workload: unknown benchmark %q (have: %s)", name, strings.Join(names, ", "))
}

// genFunc adapts a closure to InputGen.
type genFunc func(i int) map[string]int64

func (g genFunc) Next(i int) map[string]int64 { return g(i) }

// wave returns a smooth deterministic oscillation in [lo, hi] with the
// given period, evaluated at job index i. Input generators use it to
// produce the slow phase drifts (scene activity, game intensity) that
// real interactive applications exhibit.
func wave(i int, period float64, lo, hi int64) int64 {
	s := (math.Sin(2*math.Pi*float64(i)/period) + 1) / 2
	return lo + int64(math.Round(s*float64(hi-lo)))
}

// clampI64 limits v to [lo, hi].
func clampI64(v, lo, hi int64) int64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// newRNG builds a workload-local deterministic RNG.
func newRNG(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
