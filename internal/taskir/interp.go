package taskir

import (
	"errors"
	"slices"
	"sync"
)

// Work is the abstract cost of executing a job: CPU work units that
// scale with clock frequency, plus memory-bound time that does not.
// It instantiates the classical DVFS performance model used in the
// paper (§3.4): t = Tmem + Ndependent/f.
type Work struct {
	// CPU is frequency-dependent work, in cycles at the platform's
	// reference scale (Ndependent in the paper).
	CPU float64
	// MemSec is frequency-independent memory time in seconds (Tmem).
	MemSec float64
	// Stmts counts executed IR statements (loop iterations included);
	// it measures interpreter footprint, e.g. for slice size stats.
	Stmts int64
}

// TimeAt returns the execution time in seconds at frequency f (Hz).
func (w Work) TimeAt(f float64) float64 {
	return w.MemSec + w.CPU/f
}

// FeatureRecorder receives feature events during interpretation of an
// instrumented program. A nil recorder is valid and records nothing.
type FeatureRecorder interface {
	// AddFeature adds amount to counter fid.
	AddFeature(fid int, amount int64)
	// RecordCall notes that call site fid dispatched to addr.
	RecordCall(fid int, addr int64)
}

// Interpreter cost constants. Every executed statement carries a small
// bookkeeping cost so that a prediction slice — which is all control
// flow and counter updates — has a realistic, control-flow-proportional
// execution time, as in the paper's measured predictor overheads
// (Fig 17: ~3 ms average, ~24 ms for pocketsphinx).
// They are exported so internal/analysis can turn a static bound on
// executed statements into a worst-case CPU-work bound with the same
// cost model the interpreter charges.
const (
	// StmtCostCPU is charged per executed statement. An IR
	// statement stands for a handful of source statements (address
	// computation, loads, the operation itself), so the charge is on
	// the order of a hundred cycles; this is what gives prediction
	// slices their control-flow-proportional, sub-millisecond-to-
	// millisecond cost (Fig 17).
	StmtCostCPU = 150.0
	// LoopIterCostCPU is charged per loop iteration on top of the
	// body's statements (index update + branch).
	LoopIterCostCPU = 50.0
)

// ErrStepLimit reports that a job exceeded the interpreter step budget,
// which indicates a runaway loop in a workload definition.
var ErrStepLimit = errors.New("taskir: interpreter step limit exceeded")

// RunOptions configures interpretation.
type RunOptions struct {
	// MaxSteps bounds the executed statements plus loop iterations
	// (counted or while), so a loop with an empty body cannot outrun
	// it either; 0 means the default of 50M. Iterations count against
	// the budget only: Work.Stmts and Work.CPU charge them as before.
	MaxSteps int64
	// Recorder receives feature events; may be nil.
	Recorder FeatureRecorder
}

const defaultMaxSteps = 50_000_000

// Run executes one job of the program body in env and returns the work
// performed. Control flow, feature recording and cost accounting all
// happen here; time and energy are the simulator's concern. Run lowers
// p for this one job; a caller running many jobs of one program lowers
// it once (Lower) and calls Lowered.Run instead.
func Run(p *Program, env *Env, opts RunOptions) (Work, error) {
	return Lower(p).Run(env, opts)
}

// Run executes one job of the lowered program in env and returns the
// work performed, calling the compiled closures over a frame of slots
// taken from a pool, so a run allocates nothing of its own once the
// pool holds a frame large enough. The slots are filled from env's
// layers on entry, and env's maps are brought up to date on every
// return, be it success, ErrStepLimit or a while guard, so afterwards
// env reads as if each access had gone to it directly. If the
// program's Body was edited after lowering, Run lowers the current
// body for this call rather than run stale code.
func (l *Lowered) Run(env *Env, opts RunOptions) (Work, error) {
	if !slices.Equal(l.prog.Body, l.src) {
		l = Lower(l.prog)
	}
	f := frames.Get().(*frame)
	f.bind(l.names, env)
	f.rec, f.work, f.remaining = opts.Recorder, Work{}, opts.MaxSteps
	if f.remaining == 0 {
		f.remaining = defaultMaxSteps
	}
	err := l.body.run(f)
	f.unbind(l.names, env)
	w := f.work
	f.rec = nil
	frames.Put(f)
	return w, err
}

// Slot state bits.
const (
	// slotDefined marks a slot that reads a value: a param, a global,
	// or an earlier assignment.
	slotDefined uint8 = 1 << iota
	// slotLocal marks a value in the local layer, which shadows the
	// global one.
	slotLocal
	// slotWritesGlobal routes writes to the global layer: the name
	// was a global at NewEnv and the environment is not frozen.
	slotWritesGlobal
	// slotLocalDirty and slotGlobalDirty mark layers written this run.
	slotLocalDirty
	slotGlobalDirty
	// slotUndefRead marks a read before any definition.
	slotUndefRead
)

// slotVal is one variable within a run. val is what a read sees: the
// local layer's value when there is one, else the global layer's.
// global holds global writes until they are written back; a write to
// a global shadowed by a local (a param named like a global) changes
// global but not val, as Env.Set and Env.Get would have it.
type slotVal struct {
	val, global int64
	flags       uint8
}

// frame is the per-run state of a lowered program. Closures receive
// it by pointer, which moves it to the heap, so runs reuse frames and
// their slot arrays through a pool.
type frame struct {
	slots     []slotVal
	rec       FeatureRecorder
	work      Work
	remaining int64
}

var frames = sync.Pool{New: func() any { return new(frame) }}

// bind fills the frame's slots from env's layers.
func (f *frame) bind(names []string, env *Env) {
	if cap(f.slots) < len(names) {
		f.slots = make([]slotVal, len(names))
	}
	f.slots = f.slots[:len(names)]
	for i, name := range names {
		v := &f.slots[i]
		*v = slotVal{}
		if x, ok := env.locals[name]; ok {
			v.val = x
			v.flags = slotDefined | slotLocal
		} else if x, ok := env.globals[name]; ok {
			v.val = x
			v.flags = slotDefined
		}
		if !env.frozen && env.isGlobal[name] {
			v.flags |= slotWritesGlobal
		}
	}
}

// unbind writes a run's changed layers and its undefined reads back
// into env.
func (f *frame) unbind(names []string, env *Env) {
	for i := range f.slots {
		v := &f.slots[i]
		if v.flags&slotGlobalDirty != 0 {
			env.globals[names[i]] = v.global
		}
		if v.flags&slotLocalDirty != 0 {
			env.locals[names[i]] = v.val
		}
		if v.flags&slotUndefRead != 0 && env.undefReads != nil {
			env.undefReads[names[i]] = true
		}
	}
}

// get reads a slot; an undefined read yields zero and is marked.
func (f *frame) get(s int32) int64 {
	v := &f.slots[s]
	if v.flags&slotDefined == 0 {
		v.flags |= slotUndefRead
	}
	return v.val
}

// set writes a slot with Env.Set's layering.
func (f *frame) set(s int32, x int64) {
	v := &f.slots[s]
	if v.flags&slotWritesGlobal == 0 {
		v.val = x
		v.flags |= slotDefined | slotLocal | slotLocalDirty
		return
	}
	v.global = x
	v.flags |= slotGlobalDirty
	if v.flags&slotLocal == 0 {
		v.val = x
		v.flags |= slotDefined
	}
}

// step charges one executed statement and reports whether the step
// budget still holds.
func (f *frame) step() bool {
	f.work.Stmts++
	f.work.CPU += StmtCostCPU
	f.remaining--
	return f.remaining >= 0
}

// iter charges one loop iteration and reports whether the step budget
// still holds.
func (f *frame) iter() bool {
	f.work.CPU += LoopIterCostCPU
	f.remaining--
	return f.remaining >= 0
}

// loop runs n iterations of a counted loop's body, setting the index
// slot (-1: none) before each.
func (f *frame) loop(n int64, slot int32, body block) error {
	for i := int64(0); i < n; i++ {
		if !f.iter() {
			return ErrStepLimit
		}
		if slot >= 0 {
			f.set(slot, i)
		}
		if err := body.run(f); err != nil {
			return err
		}
	}
	return nil
}
