package analysis

import (
	"sort"

	"repro/internal/taskir"
)

// Effect classifies what one statement (recursively, for control
// statements) may do to state outside the job: which globals it may
// read or write, and whether it performs abstract computation. The
// may-sets ignore path feasibility — a write inside a never-taken
// branch still counts, which is the right direction for proving
// isolation.
type Effect struct {
	ReadsGlobals  map[string]bool
	WritesGlobals map[string]bool
	// ComputeStmts counts Compute/ComputeScaled statements — a
	// prediction slice must have zero.
	ComputeStmts int
	// FeatureFIDs is the set of feature sites the statement updates.
	FeatureFIDs map[int]bool
}

func newEffect() *Effect {
	return &Effect{
		ReadsGlobals:  map[string]bool{},
		WritesGlobals: map[string]bool{},
		FeatureFIDs:   map[int]bool{},
	}
}

// ReadsSorted returns the may-read globals in sorted order.
func (e *Effect) ReadsSorted() []string { return sortedVars(e.ReadsGlobals) }

// WritesSorted returns the may-write globals in sorted order.
func (e *Effect) WritesSorted() []string { return sortedVars(e.WritesGlobals) }

// FIDsSorted returns the updated feature sites in sorted order.
func (e *Effect) FIDsSorted() []int {
	fids := make([]int, 0, len(e.FeatureFIDs))
	for fid := range e.FeatureFIDs {
		fids = append(fids, fid)
	}
	sort.Ints(fids)
	return fids
}

// ProgramEffect aggregates the effects of the whole program body
// against its own global set.
func ProgramEffect(p *taskir.Program) *Effect {
	globals := make(map[string]bool, len(p.Globals))
	for g := range p.Globals {
		globals[g] = true
	}
	e := newEffect()
	for _, s := range p.Body {
		effectStmt(s, globals, e)
	}
	return e
}

func effectStmt(s taskir.Stmt, globals map[string]bool, e *Effect) {
	reads := func(vars []string) {
		for _, v := range vars {
			if globals[v] {
				e.ReadsGlobals[v] = true
			}
		}
	}
	writes := func(v string) {
		if globals[v] {
			e.WritesGlobals[v] = true
		}
	}
	switch st := s.(type) {
	case *taskir.Assign:
		reads(taskir.ExprVars(st.Expr))
		writes(st.Dst)
	case *taskir.Compute:
		e.ComputeStmts++
	case *taskir.ComputeScaled:
		e.ComputeStmts++
		reads(taskir.ExprVars(st.Units))
	case *taskir.If:
		reads(taskir.ExprVars(st.Cond))
		for _, b := range [][]taskir.Stmt{st.Then, st.Else} {
			for _, inner := range b {
				effectStmt(inner, globals, e)
			}
		}
	case *taskir.While:
		reads(taskir.ExprVars(st.Cond))
		for _, inner := range st.Body {
			effectStmt(inner, globals, e)
		}
	case *taskir.Loop:
		reads(taskir.ExprVars(st.Count))
		if st.IndexVar != "" {
			writes(st.IndexVar)
		}
		for _, inner := range st.Body {
			effectStmt(inner, globals, e)
		}
	case *taskir.Call:
		reads(taskir.ExprVars(st.Target))
		for _, addr := range sortedAddrs(st.Funcs) {
			for _, inner := range st.Funcs[addr] {
				effectStmt(inner, globals, e)
			}
		}
	case *taskir.FeatAdd:
		reads(taskir.ExprVars(st.Amount))
		e.FeatureFIDs[st.FID] = true
	case *taskir.FeatCall:
		reads(taskir.ExprVars(st.Target))
		e.FeatureFIDs[st.FID] = true
	}
}
