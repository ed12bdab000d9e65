package taskir

import (
	"fmt"
	"sort"
)

// Env is a job execution environment: the variable store visible to a
// program body. It layers per-job locals (params and temporaries) over
// persistent globals, so that global writes survive across jobs while
// locals are discarded.
type Env struct {
	globals map[string]int64
	locals  map[string]int64
	// isGlobal marks which names resolve to the global layer.
	isGlobal map[string]bool
	// frozen, when set, redirects global writes into the local layer
	// (copy-on-write). This implements the paper's side-effect
	// isolation for prediction slices (§3.2): the slice takes local
	// copies of any globals it writes.
	frozen bool
	// undefReads, when non-nil, records every name read before any
	// definition (see TrackReads). Get keeps returning zero for such
	// reads so existing behavior is unchanged; the record lets the
	// analysis layer and dvfslint surface reads that Validate's linear
	// walk cannot prove defined.
	undefReads map[string]bool
}

// NewEnv creates an environment whose global layer holds the program's
// persistent state. The caller owns globals; Env mutates it in place
// on global writes (unless frozen).
func NewEnv(globals map[string]int64) *Env {
	isG := make(map[string]bool, len(globals))
	for k := range globals {
		isG[k] = true
	}
	return &Env{
		globals:  globals,
		locals:   map[string]int64{},
		isGlobal: isG,
	}
}

// Freeze makes all subsequent global writes copy-on-write: they land
// in the local layer and the shared global map is never mutated. Reads
// see the local copy once written. This is how a prediction slice runs
// without side effects.
func (e *Env) Freeze() { e.frozen = true }

// Get returns the value of name, preferring the local layer. Unset
// variables read as zero; GetChecked distinguishes that case, and
// TrackReads records it for later inspection.
func (e *Env) Get(name string) int64 {
	v, _ := e.GetChecked(name)
	return v
}

// GetChecked returns the value of name and whether it has ever been
// defined (as a param, global, or prior assignment). When read
// tracking is enabled, undefined reads are recorded.
func (e *Env) GetChecked(name string) (int64, bool) {
	if v, ok := e.locals[name]; ok {
		return v, true
	}
	if v, ok := e.globals[name]; ok {
		return v, true
	}
	if e.undefReads != nil {
		e.undefReads[name] = true
	}
	return 0, false
}

// TrackReads enables recording of undefined-variable reads. The
// recorded set accumulates across jobs (ResetLocals keeps it);
// UndefinedReads returns it.
func (e *Env) TrackReads() {
	if e.undefReads == nil {
		e.undefReads = map[string]bool{}
	}
}

// UndefinedReads returns the sorted set of names read before any
// definition since TrackReads was enabled. Nil when tracking is off
// and no undefined read occurred.
func (e *Env) UndefinedReads() []string {
	if len(e.undefReads) == 0 {
		return nil
	}
	names := make([]string, 0, len(e.undefReads))
	for n := range e.undefReads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Set assigns name. Global names write through to the global layer
// unless the environment is frozen; all other names are job-locals.
func (e *Env) Set(name string, v int64) {
	if e.isGlobal[name] && !e.frozen {
		e.globals[name] = v
		return
	}
	e.locals[name] = v
}

// SetParams installs per-job input values as locals.
func (e *Env) SetParams(params map[string]int64) {
	for k, v := range params {
		e.locals[k] = v
	}
}

// ResetLocals clears the local layer for the next job while keeping
// globals intact.
func (e *Env) ResetLocals() {
	e.locals = map[string]int64{}
}

// GlobalsSnapshot returns a copy of the global layer, for tests that
// verify slice side-effect isolation.
func (e *Env) GlobalsSnapshot() map[string]int64 {
	snap := make(map[string]int64, len(e.globals))
	for k, v := range e.globals {
		snap[k] = v
	}
	return snap
}

// String renders the environment deterministically for debugging.
func (e *Env) String() string {
	keys := make([]string, 0, len(e.globals)+len(e.locals))
	for k := range e.globals {
		keys = append(keys, k)
	}
	for k := range e.locals {
		if !e.isGlobal[k] {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	s := "{"
	for i, k := range keys {
		if i > 0 {
			s += ", "
		}
		s += fmt.Sprintf("%s:%d", k, e.Get(k))
	}
	return s + "}"
}
