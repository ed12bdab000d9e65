// Package slicer extracts prediction slices from instrumented task
// programs (paper §3.2, Fig 8).
//
// A prediction slice is the minimal code fragment that still computes
// the control-flow features selected by the execution-time model. The
// slicer removes all Compute statements (the actual work), every
// feature statement whose coefficient was zeroed by the Lasso, and
// every assignment or control structure that the remaining feature
// computations do not depend on.
//
// Dependences are tracked by variable name only, deliberately ignoring
// aliasing — the paper's tool makes the same approximation and notes
// that an approximate slice is adequate because the features feed a
// heuristic DVFS decision.
//
// Side-effect isolation: the slice may retain assignments to global
// (persistent) state. Running the slice through Run uses a frozen
// environment so those writes land in local copies, matching the
// paper's "local copies of any global variables" rule.
package slicer

import (
	"repro/internal/instrument"
	"repro/internal/taskir"
)

// Slice is an executable prediction slice.
type Slice struct {
	// Prog computes the selected features; it contains no Compute
	// statements.
	Prog *taskir.Program
	// NeededFIDs is the set of feature sites the slice computes.
	NeededFIDs map[int]bool
	// FullStmts and SliceStmts compare static statement counts of the
	// instrumented program and the slice (slice size reduction).
	FullStmts  int
	SliceStmts int
	// Stats records how the extraction behaved, for diagnostics and
	// for tests that bound the fixpoint.
	Stats Stats

	// run is Prog lowered once at extraction. It is read-only, so
	// every controller clone sharing the slice runs it concurrently;
	// each run keeps its state in its own frame.
	run *taskir.Lowered
}

// Stats are per-extraction statistics. The fixpoint iterates while the
// needed-variable set grows, so FixpointIters can never exceed the
// number of distinct variables plus one final stable pass — tests
// assert that bound on random programs.
type Stats struct {
	// FixpointIters counts full re-slicing passes until the
	// needed-variable set stopped growing.
	FixpointIters int
	// VarsKept is the size of the final needed-variable set.
	VarsKept int
}

// Extract builds the prediction slice of ip that computes exactly the
// features in need (a set of FIDs). Passing nil keeps every feature.
func Extract(ip *instrument.Program, need map[int]bool) *Slice {
	if need == nil {
		need = map[int]bool{}
		for _, s := range ip.Sites {
			need[s.FID] = true
		}
	}
	sl := &slicerPass{need: need, vars: map[string]bool{}}
	// Iterate to a fixpoint: the needed-variable set only grows, so
	// repeated passes converge. Each pass re-slices from scratch with
	// the accumulated variable set, which handles loop-carried and
	// cross-branch dependences conservatively.
	var body []taskir.Stmt
	iters := 0
	for {
		iters++
		before := len(sl.vars)
		body = sl.block(ip.Prog.Body)
		if len(sl.vars) == before {
			break
		}
	}
	prog := ip.Prog.Clone()
	prog.Name = ip.Prog.Name + ".slice"
	prog.Body = body
	out := &Slice{
		Prog:       prog,
		NeededFIDs: need,
		FullStmts:  ip.Prog.StmtCount(),
		Stats:      Stats{FixpointIters: iters, VarsKept: len(sl.vars)},
		run:        taskir.Lower(prog),
	}
	out.SliceStmts = prog.StmtCount()
	return out
}

type slicerPass struct {
	need map[int]bool
	// vars is the growing set of variables the kept statements read.
	vars map[string]bool
}

func (sl *slicerPass) wantVars(e taskir.Expr) {
	for _, v := range taskir.ExprVars(e) {
		sl.vars[v] = true
	}
}

// block slices a statement list, processing in reverse so that a use
// marks earlier definitions as needed within the same pass where
// possible (the outer fixpoint catches the rest).
func (sl *slicerPass) block(stmts []taskir.Stmt) []taskir.Stmt {
	kept := make([]taskir.Stmt, 0, len(stmts))
	for i := len(stmts) - 1; i >= 0; i-- {
		if s := sl.stmt(stmts[i]); s != nil {
			kept = append(kept, s)
		}
	}
	// Reverse back to source order.
	for i, j := 0, len(kept)-1; i < j; i, j = i+1, j-1 {
		kept[i], kept[j] = kept[j], kept[i]
	}
	return kept
}

// stmt returns the sliced form of s, or nil when s is dropped.
func (sl *slicerPass) stmt(s taskir.Stmt) taskir.Stmt {
	switch st := s.(type) {
	case *taskir.FeatAdd:
		if !sl.need[st.FID] {
			return nil
		}
		sl.wantVars(st.Amount)
		return st
	case *taskir.FeatCall:
		if !sl.need[st.FID] {
			return nil
		}
		sl.wantVars(st.Target)
		return st
	case *taskir.Compute, *taskir.ComputeScaled:
		// The whole point of the slice: drop the actual work.
		return nil
	case *taskir.Assign:
		if !sl.vars[st.Dst] {
			return nil
		}
		sl.wantVars(st.Expr)
		return st
	case *taskir.If:
		then := sl.block(st.Then)
		els := sl.block(st.Else)
		if len(then) == 0 && len(els) == 0 {
			return nil
		}
		sl.wantVars(st.Cond)
		return &taskir.If{ID: st.ID, Cond: st.Cond, Then: then, Else: els}
	case *taskir.While:
		body := sl.block(st.Body)
		if len(body) == 0 {
			return nil
		}
		// Keeping a while-loop requires keeping everything its
		// condition depends on, or the slice would iterate differently
		// (or not terminate); the outer fixpoint pulls the body's
		// condition-update chain into the need set.
		sl.wantVars(st.Cond)
		return &taskir.While{ID: st.ID, Cond: st.Cond, Body: body, MaxIter: st.MaxIter}
	case *taskir.Loop:
		body := sl.block(st.Body)
		// A loop whose body slices away must still be kept when its
		// index variable feeds a kept statement: the final index value
		// is a definition like any other.
		if len(body) == 0 && !(st.IndexVar != "" && sl.vars[st.IndexVar]) {
			return nil
		}
		sl.wantVars(st.Count)
		return &taskir.Loop{ID: st.ID, Count: st.Count, IndexVar: st.IndexVar, Body: body}
	case *taskir.Call:
		funcs := map[int64][]taskir.Stmt{}
		total := 0
		for addr, b := range st.Funcs {
			sb := sl.block(b)
			funcs[addr] = sb
			total += len(sb)
		}
		if total == 0 {
			return nil
		}
		sl.wantVars(st.Target)
		return &taskir.Call{ID: st.ID, Target: st.Target, Funcs: funcs}
	default:
		return nil
	}
}

// Run executes the slice for one job without side effects: globals are
// read from the live program state but all writes are isolated to
// local copies (frozen environment). It returns the computed feature
// trace recorded into rec and the interpreter work of the slice, which
// the simulator converts into predictor execution time. Run is safe
// for concurrent use on distinct globals maps.
func (s *Slice) Run(globals map[string]int64, params map[string]int64, rec taskir.FeatureRecorder) (taskir.Work, error) {
	env := taskir.NewEnv(globals)
	env.Freeze()
	env.SetParams(params)
	return s.run.Run(env, taskir.RunOptions{Recorder: rec})
}
