package taskir

import (
	"fmt"
	"sort"
)

// Lowered is a program resolved for execution: every variable name is
// replaced by a dense slot index, fixed for that program, and the
// statement tree is rebuilt over those slots. Lowering is a one-time
// pass; running a lowered program then reads and writes a per-run
// array of slots instead of probing the environment's name maps on
// every access.
//
// A Lowered is read-only once Lower returns, so one value may run
// jobs from many goroutines at once (a prediction slice shared by
// every fleet worker); all per-run state lives in the run's frame.
type Lowered struct {
	prog *Program
	// src holds the top-level statements prog.Body had when it was
	// lowered. Statement nodes are immutable, so comparing it with
	// prog.Body detects any later edit of the body.
	src []Stmt
	// names maps each slot to its variable name.
	names []string
	body  []lstmt
}

// Lower resolves p's variable names to slots and lowers its body.
// Owners that run a program for many jobs lower it once and call
// Lowered.Run per job. Lower panics on an expression type the package
// does not define, as Validate and ExprVars do.
func Lower(p *Program) *Lowered {
	lw := &lowerer{slots: map[string]int32{}}
	l := &Lowered{prog: p, src: append([]Stmt(nil), p.Body...)}
	l.body = lw.block(p.Body)
	l.names = lw.names
	return l
}

// current reports whether the program's body is still the one l was
// lowered from.
func (l *Lowered) current() bool {
	body := l.prog.Body
	if len(body) != len(l.src) {
		return false
	}
	for i := range body {
		if body[i] != l.src[i] {
			return false
		}
	}
	return true
}

// stmtOp enumerates lowered statement kinds; each mirrors one Stmt type.
type stmtOp uint8

const (
	opAssign stmtOp = iota
	opCompute
	opComputeScaled
	opIf
	opWhile
	opLoop
	opCall
	opFeatAdd
	opFeatCall
	opInvalid
)

// lstmt is a lowered statement. Fields are shared between kinds:
//
//	Assign         slot ← x
//	Compute        cpu, mem (the charge, MemNS already scaled to seconds)
//	ComputeScaled  cpu, mem per unit (MemNSPer unscaled), x the units
//	If             x the condition, body/alt the branches
//	While          x the condition, body, id, maxIter (0 already resolved)
//	Loop           x the count, slot the index (-1: none), body
//	Call           x the target, funcs sorted by address
//	FeatAdd        id the FID, x the amount
//	FeatCall       id the FID, x the target
//	invalid        err, returned when the statement is reached
type lstmt struct {
	op       stmtOp
	slot     int32
	id       int
	maxIter  int64
	x        *lexpr
	cpu, mem float64
	body     []lstmt
	alt      []lstmt
	funcs    []lfunc
	err      error
}

// lfunc is one function-pointer target of a lowered Call.
type lfunc struct {
	addr int64
	body []lstmt
}

// exprKind enumerates lowered expression kinds.
type exprKind uint8

const (
	exprConst exprKind = iota
	exprVar
	exprBin
	exprNot
)

// lexpr is a lowered expression: a constant (val), a variable read
// (slot), a binary operation (op over l and r), or a negation (l).
type lexpr struct {
	kind exprKind
	op   Op
	slot int32
	val  int64
	l, r *lexpr
}

// lowerer assigns slots in first-occurrence order while it rebuilds
// the tree.
type lowerer struct {
	slots map[string]int32
	names []string
}

func (lw *lowerer) slot(name string) int32 {
	if s, ok := lw.slots[name]; ok {
		return s
	}
	s := int32(len(lw.names))
	lw.slots[name] = s
	lw.names = append(lw.names, name)
	return s
}

func (lw *lowerer) block(stmts []Stmt) []lstmt {
	if len(stmts) == 0 {
		return nil
	}
	out := make([]lstmt, len(stmts))
	for i, s := range stmts {
		out[i] = lw.stmt(s)
	}
	return out
}

func (lw *lowerer) stmt(s Stmt) lstmt {
	switch st := s.(type) {
	case *Assign:
		// The expression is lowered first, as it is evaluated first.
		x := lw.expr(st.Expr)
		return lstmt{op: opAssign, x: x, slot: lw.slot(st.Dst)}
	case *Compute:
		return lstmt{op: opCompute, cpu: st.Work, mem: st.MemNS * 1e-9}
	case *ComputeScaled:
		return lstmt{op: opComputeScaled, x: lw.expr(st.Units), cpu: st.WorkPer, mem: st.MemNSPer}
	case *If:
		return lstmt{op: opIf, x: lw.expr(st.Cond), body: lw.block(st.Then), alt: lw.block(st.Else)}
	case *While:
		maxIter := st.MaxIter
		if maxIter == 0 {
			maxIter = 100_000
		}
		return lstmt{op: opWhile, x: lw.expr(st.Cond), body: lw.block(st.Body), id: st.ID, maxIter: maxIter}
	case *Loop:
		l := lstmt{op: opLoop, x: lw.expr(st.Count), slot: -1}
		if st.IndexVar != "" {
			l.slot = lw.slot(st.IndexVar)
		}
		l.body = lw.block(st.Body)
		return l
	case *Call:
		l := lstmt{op: opCall, x: lw.expr(st.Target), funcs: make([]lfunc, 0, len(st.Funcs))}
		for addr := range st.Funcs {
			l.funcs = append(l.funcs, lfunc{addr: addr})
		}
		sort.Slice(l.funcs, func(i, j int) bool { return l.funcs[i].addr < l.funcs[j].addr })
		for i := range l.funcs {
			l.funcs[i].body = lw.block(st.Funcs[l.funcs[i].addr])
		}
		return l
	case *FeatAdd:
		return lstmt{op: opFeatAdd, id: st.FID, x: lw.expr(st.Amount)}
	case *FeatCall:
		return lstmt{op: opFeatCall, id: st.FID, x: lw.expr(st.Target)}
	default:
		return lstmt{op: opInvalid, err: fmt.Errorf("taskir: cannot interpret statement type %T", s)}
	}
}

func (lw *lowerer) expr(e Expr) *lexpr {
	switch x := e.(type) {
	case Const:
		return &lexpr{kind: exprConst, val: int64(x)}
	case Var:
		return &lexpr{kind: exprVar, slot: lw.slot(string(x))}
	case *Bin:
		l := lw.expr(x.L)
		return &lexpr{kind: exprBin, op: x.Op, l: l, r: lw.expr(x.R)}
	case *Not:
		return &lexpr{kind: exprNot, l: lw.expr(x.X)}
	default:
		panic(fmt.Sprintf("taskir: unknown expression type %T", e))
	}
}
