package taskir

import (
	"fmt"
	"slices"
)

// Lowered is a program compiled for execution. Every variable name is
// replaced by a dense slot index, fixed for that program, and every
// statement and expression is compiled once into a Go closure over a
// run's frame of slots. A binary expression's closure is chosen at
// compile time for the shape of its operands (constant, slot or nested
// expression) and, for some operators, for its operator; a counted
// loop over straight-line Compute statements runs as one closure. A
// run dispatches on nothing but the closures.
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
	body  block
}

// Lower resolves p's variable names to slots and compiles its body.
// Owners that run a program for many jobs lower it once and call
// Lowered.Run per job. Lower panics on an expression type the package
// does not define, as Validate and ExprVars do; a statement type it
// does not define compiles to one that errors when it is reached.
func Lower(p *Program) *Lowered {
	c := &compiler{slots: map[string]int32{}}
	body := c.block(p.Body)
	return &Lowered{prog: p, src: slices.Clone(p.Body), names: c.names, body: body}
}

// stmtFn runs one compiled statement; the block running it has already
// charged the statement and its step.
type stmtFn func(*frame) error

// exprFn evaluates one compiled expression.
type exprFn func(*frame) int64

// block is a compiled statement list.
type block []stmtFn

// run executes the statements in order, charging each one before it
// runs.
func (b block) run(f *frame) error {
	for _, s := range b {
		if !f.step() {
			return ErrStepLimit
		}
		if err := s(f); err != nil {
			return err
		}
	}
	return nil
}

// compiler assigns slots in first-occurrence order while it compiles
// the tree.
type compiler struct {
	slots map[string]int32
	names []string
}

func (c *compiler) slot(name string) int32 {
	if s, ok := c.slots[name]; ok {
		return s
	}
	s := int32(len(c.names))
	c.slots[name] = s
	c.names = append(c.names, name)
	return s
}

func (c *compiler) block(stmts []Stmt) block {
	b := make(block, len(stmts))
	for i, s := range stmts {
		b[i] = c.stmt(s)
	}
	return b
}

func (c *compiler) stmt(s Stmt) stmtFn {
	switch st := s.(type) {
	case *Assign:
		// The expression is compiled first, as it is evaluated first.
		x := c.expr(st.Expr)
		dst := c.slot(st.Dst)
		return func(f *frame) error {
			f.set(dst, x(f))
			return nil
		}
	case *Compute:
		cpu, mem := st.Work, st.MemNS*1e-9
		return func(f *frame) error {
			f.work.CPU += cpu
			f.work.MemSec += mem
			return nil
		}
	case *ComputeScaled:
		units, cpu, mem := c.expr(st.Units), st.WorkPer, st.MemNSPer
		return func(f *frame) error {
			if n := units(f); n > 0 {
				f.work.CPU += cpu * float64(n)
				f.work.MemSec += mem * float64(n) * 1e-9
			}
			return nil
		}
	case *If:
		cond, then, alt := c.expr(st.Cond), c.block(st.Then), c.block(st.Else)
		return func(f *frame) error {
			if cond(f) != 0 {
				return then.run(f)
			}
			return alt.run(f)
		}
	case *While:
		cond, body := c.expr(st.Cond), c.block(st.Body)
		id, maxIter := st.ID, st.MaxIter
		if maxIter == 0 {
			maxIter = 100_000
		}
		return func(f *frame) error {
			for i := int64(0); cond(f) != 0; i++ {
				if i >= maxIter {
					return fmt.Errorf("taskir: while#%d exceeded %d iterations", id, maxIter)
				}
				if !f.iter() {
					return ErrStepLimit
				}
				if err := body.run(f); err != nil {
					return err
				}
			}
			return nil
		}
	case *Loop:
		return c.loop(st)
	case *Call:
		target := c.expr(st.Target)
		addrs := sortedKeys(st.Funcs)
		bodies := make([]block, len(addrs))
		for i, a := range addrs {
			bodies[i] = c.block(st.Funcs[a])
		}
		return func(f *frame) error {
			addr := target(f)
			for i, a := range addrs {
				if a == addr {
					return bodies[i].run(f)
				}
			}
			return nil
		}
	case *FeatAdd:
		id, amount := st.FID, c.expr(st.Amount)
		return func(f *frame) error {
			if f.rec != nil {
				f.rec.AddFeature(id, amount(f))
			}
			return nil
		}
	case *FeatCall:
		id, target := st.FID, c.expr(st.Target)
		return func(f *frame) error {
			if f.rec != nil {
				f.rec.RecordCall(id, target(f))
			}
			return nil
		}
	}
	err := fmt.Errorf("taskir: cannot interpret statement type %T", s)
	return func(*frame) error { return err }
}

// loop compiles a counted loop. A body of straight-line Compute
// statements, or none, runs as one closure whenever the step budget
// covers every iteration: it charges the iterations' work in the same
// order, one addition at a time, and sets the index slot once to its
// last value, which nothing in the body can read before then.
func (c *compiler) loop(st *Loop) stmtFn {
	count, slot := c.expr(st.Count), int32(-1)
	if st.IndexVar != "" {
		slot = c.slot(st.IndexVar)
	}
	body := c.block(st.Body)
	costs := make([][2]float64, len(st.Body))
	for i, s := range st.Body {
		cs, ok := s.(*Compute)
		if !ok {
			return func(f *frame) error { return f.loop(count(f), slot, body) }
		}
		costs[i] = [2]float64{cs.Work, cs.MemNS * 1e-9}
	}
	per := int64(len(costs)) + 1 // steps per iteration
	return func(f *frame) error {
		n := count(f)
		if n <= 0 || n > f.remaining/per {
			return f.loop(n, slot, body)
		}
		f.remaining -= n * per
		f.work.Stmts += n * (per - 1)
		cpu, mem := f.work.CPU, f.work.MemSec
		for i := int64(0); i < n; i++ {
			cpu += LoopIterCostCPU
			for _, cost := range costs {
				cpu += StmtCostCPU
				cpu += cost[0]
				mem += cost[1]
			}
		}
		f.work.CPU, f.work.MemSec = cpu, mem
		if slot >= 0 {
			f.set(slot, n-1)
		}
		return nil
	}
}

func (c *compiler) expr(e Expr) exprFn {
	switch x := e.(type) {
	case Const:
		return func(*frame) int64 { return int64(x) }
	case Var:
		s := c.slot(string(x))
		return func(f *frame) int64 { return f.get(s) }
	case *Not:
		a := c.expr(x.X)
		return func(f *frame) int64 { return b2i(a(f) == 0) }
	case *Bin:
		return c.bin(x)
	}
	panic(fmt.Sprintf("taskir: unknown expression type %T", e))
}

// bin compiles a binary expression for the shape of its operands: a
// slot and a constant, two slots, an expression and a constant, or
// two expressions. Within each shape some operators the workloads use
// in it compute inline, held to Op.apply, the arithmetic's one
// definition, by TestCompiledArithmeticMatchesApply; every other
// operator reads its operands the same way and calls Op.apply.
func (c *compiler) bin(x *Bin) exprFn {
	op := x.Op
	k, rc := x.R.(Const)
	if v, ok := x.L.(Var); ok {
		s := c.slot(string(v))
		if rc {
			return slotConst(op, s, int64(k))
		}
		if w, ok := x.R.(Var); ok {
			return slotSlot(op, s, c.slot(string(w)))
		}
	}
	l := c.expr(x.L)
	if rc {
		return exprConst(op, l, int64(k))
	}
	return exprExpr(op, l, c.expr(x.R))
}

func slotConst(op Op, s int32, k int64) exprFn {
	switch op {
	case OpAdd:
		return func(f *frame) int64 { return f.get(s) + k }
	case OpSub:
		return func(f *frame) int64 { return f.get(s) - k }
	case OpMul:
		return func(f *frame) int64 { return f.get(s) * k }
	case OpMax:
		return func(f *frame) int64 { return max(f.get(s), k) }
	case OpGT:
		return func(f *frame) int64 { return b2i(f.get(s) > k) }
	case OpEQ:
		return func(f *frame) int64 { return b2i(f.get(s) == k) }
	}
	return func(f *frame) int64 { return op.apply(f.get(s), k) }
}

func slotSlot(op Op, a, b int32) exprFn {
	if op == OpLT {
		return func(f *frame) int64 { return b2i(f.get(a) < f.get(b)) }
	}
	return func(f *frame) int64 { return op.apply(f.get(a), f.get(b)) }
}

func exprConst(op Op, l exprFn, k int64) exprFn {
	if op == OpMod && k != 0 {
		return func(f *frame) int64 { return l(f) % k }
	}
	return func(f *frame) int64 { return op.apply(l(f), k) }
}

func exprExpr(op Op, l, r exprFn) exprFn {
	if op == OpAdd {
		return func(f *frame) int64 { return l(f) + r(f) }
	}
	return func(f *frame) int64 { return op.apply(l(f), r(f)) }
}
