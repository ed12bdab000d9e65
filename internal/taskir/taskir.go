// Package taskir defines a small imperative intermediate representation
// for interactive tasks, together with an interpreter that executes a
// task's job and accounts for the abstract work it performs.
//
// The paper's framework operates on C source: it instruments control
// flow (loop trip counts, conditional branches, function-pointer call
// targets), slices the program down to the feature computation, and
// runs the slice as a predictor before each job. This package is the
// equivalent substrate: programs are trees of statements over an
// integer environment, and "computation" is represented by Compute
// statements that carry an abstract cost (CPU work units that scale
// with frequency, plus memory time that does not).
//
// The IR is deliberately analyzable: expressions reference variables
// by name, so the slicer in internal/slicer can perform the same
// name-based (alias-free) dependence analysis the paper's tool uses.
package taskir

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
)

// Program is a task: a body of statements executed once per job.
//
// Params are per-job inputs (the "job input" of the paper); Globals are
// persistent program state that survives across jobs and may be both
// read and written by the body. The distinction matters for slicing:
// a prediction slice must not write globals (side-effect isolation).
type Program struct {
	// Name identifies the task, e.g. "ldecode".
	Name string
	// Params lists per-job input variables, set by the input
	// generator before each job.
	Params []string
	// Globals lists persistent state variables with their initial
	// values. The body may read and write them.
	Globals map[string]int64
	// Body is the task code executed once per job.
	Body []Stmt
}

// Clone returns a deep copy of the program structure. Statement and
// expression nodes are immutable after construction, so the copy
// shares them; only the mutable containers are duplicated.
func (p *Program) Clone() *Program {
	q := &Program{
		Name:    p.Name,
		Params:  append([]string(nil), p.Params...),
		Globals: make(map[string]int64, len(p.Globals)),
		Body:    append([]Stmt(nil), p.Body...),
	}
	for k, v := range p.Globals {
		q.Globals[k] = v
	}
	return q
}

// Stmt is a statement in the task IR.
type Stmt interface {
	// stmt is a marker; statements are handled by type switch in the
	// interpreter, instrumenter and slicer.
	stmt()
	// String renders a compact single-line form, used in tests and
	// debug dumps.
	String() string
}

// Assign sets a variable to the value of an expression.
type Assign struct {
	Dst  string
	Expr Expr
}

// Compute represents straight-line computation with an abstract cost.
// Work is in CPU work units (cycles at the platform's reference scale;
// they shrink with rising frequency). MemNS is memory-bound time in
// nanoseconds that does not scale with frequency, per the classical
// DVFS model t = Tmem + Ndependent/f used in the paper (§3.4).
type Compute struct {
	// Label names the computation for debugging ("idct", "mixcolumns").
	Label string
	Work  float64
	MemNS float64
}

// ComputeScaled is straight-line computation whose cost is
// proportional to a run-time value (a copy of n bytes, an accumulation
// over a coefficient magnitude): cost = PerUnit costs × max(Units, 0).
// Crucially it is NOT control flow: the paper's instrumentation counts
// branches, loops, and call targets only (§3.2), so this cost is
// invisible to the feature set and bounds the accuracy any
// control-flow model can reach — the residual error seen in Fig 19.
type ComputeScaled struct {
	Label    string
	WorkPer  float64
	MemNSPer float64
	Units    Expr
}

// If executes Then when Cond evaluates non-zero, otherwise Else.
// ID identifies the conditional for feature instrumentation.
type If struct {
	ID   int
	Cond Expr
	Then []Stmt
	Else []Stmt
}

// Loop executes Body Count times (counted loop; negative counts run
// zero iterations). ID identifies the loop for feature instrumentation.
// When IndexVar is non-empty the body sees the current iteration index
// (0-based) under that name; inner loops whose trip counts depend on
// the index force the prediction slice to actually iterate, which is
// what gives real slices their control-flow-proportional cost.
type Loop struct {
	ID       int
	Count    Expr
	IndexVar string
	Body     []Stmt
}

// While executes Body as long as Cond evaluates non-zero — the
// list-walk loop shape of the paper's Fig 7, instrumented with an
// in-body counter rather than a hoisted count (the trip count is not
// a closed form; the prediction slice must execute the loop). MaxIter
// guards against non-termination; zero selects 100000.
type While struct {
	ID      int
	Cond    Expr
	Body    []Stmt
	MaxIter int64
}

// Call dispatches through a function pointer: Target evaluates to a
// function address and the matching Funcs entry runs. Unknown
// addresses execute nothing (a call into code with no cost model).
// ID identifies the call site for feature instrumentation.
type Call struct {
	ID     int
	Target Expr
	Funcs  map[int64][]Stmt
}

// FeatAdd is inserted by instrumentation: it adds the value of Amount
// to feature counter FID. It never appears in hand-written task code.
type FeatAdd struct {
	FID    int
	Amount Expr
}

// FeatCall is inserted by instrumentation at function-pointer call
// sites: it records that call site FID invoked the address Target
// evaluates to. Addresses are one-hot encoded by internal/features.
type FeatCall struct {
	FID    int
	Target Expr
}

func (*Assign) stmt()        {}
func (*Compute) stmt()       {}
func (*ComputeScaled) stmt() {}
func (*If) stmt()            {}
func (*While) stmt()         {}
func (*Loop) stmt()          {}
func (*Call) stmt()          {}
func (*FeatAdd) stmt()       {}
func (*FeatCall) stmt()      {}

func (s *Assign) String() string { return fmt.Sprintf("%s = %s", s.Dst, s.Expr) }
func (s *Compute) String() string {
	return fmt.Sprintf("compute %s(work=%g, mem=%gns)", s.Label, s.Work, s.MemNS)
}
func (s *ComputeScaled) String() string {
	return fmt.Sprintf("compute %s(work=%g*%s, mem=%gns*%s)", s.Label, s.WorkPer, s.Units, s.MemNSPer, s.Units)
}
func (s *If) String() string {
	return fmt.Sprintf("if#%d (%s) {%d stmts} else {%d stmts}", s.ID, s.Cond, len(s.Then), len(s.Else))
}
func (s *While) String() string {
	return fmt.Sprintf("while#%d (%s) {%d stmts}", s.ID, s.Cond, len(s.Body))
}
func (s *Loop) String() string {
	return fmt.Sprintf("loop#%d (%s) {%d stmts}", s.ID, s.Count, len(s.Body))
}
func (s *Call) String() string {
	addrs := sortedKeys(s.Funcs)
	parts := make([]string, len(addrs))
	for i, a := range addrs {
		parts[i] = fmt.Sprintf("%d", a)
	}
	return fmt.Sprintf("call#%d (*%s) in {%s}", s.ID, s.Target, strings.Join(parts, ","))
}
func (s *FeatAdd) String() string  { return fmt.Sprintf("feature[%d] += %s", s.FID, s.Amount) }
func (s *FeatCall) String() string { return fmt.Sprintf("feature[%d] = addr(%s)", s.FID, s.Target) }

// sortedKeys returns m's keys in ascending order.
func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// Validate checks structural invariants: globals and params must not
// collide, every variable read must be a param, global, or previously
// assigned local, and feature IDs must be unique. It returns the first
// problem found.
func (p *Program) Validate() error {
	vars := map[string]bool{}
	for _, g := range p.Params {
		if vars[g] {
			return fmt.Errorf("taskir: duplicate variable %q", g)
		}
		vars[g] = true
	}
	for g := range p.Globals {
		if vars[g] {
			return fmt.Errorf("taskir: variable %q is both param and global", g)
		}
		vars[g] = true
	}
	seenFID := map[int]bool{}
	var checkExpr func(e Expr) error
	checkExpr = func(e Expr) error {
		for _, v := range exprVars(e, nil) {
			if !vars[v] {
				return fmt.Errorf("taskir: read of unassigned variable %q", v)
			}
		}
		return nil
	}
	// control checks a control-flow statement's expression, then that
	// its ID is unique.
	control := func(id int, e Expr) error {
		if err := checkExpr(e); err != nil {
			return err
		}
		if seenFID[id] {
			return fmt.Errorf("taskir: duplicate control-flow ID %d", id)
		}
		seenFID[id] = true
		return nil
	}
	var walk func(stmts []Stmt) error
	walk = func(stmts []Stmt) error {
		for _, s := range stmts {
			switch st := s.(type) {
			case *Assign:
				if err := checkExpr(st.Expr); err != nil {
					return err
				}
				vars[st.Dst] = true
			case *Compute:
				if st.Work < 0 || st.MemNS < 0 {
					return fmt.Errorf("taskir: negative cost in compute %q", st.Label)
				}
			case *ComputeScaled:
				if st.WorkPer < 0 || st.MemNSPer < 0 {
					return fmt.Errorf("taskir: negative cost in compute %q", st.Label)
				}
				if err := checkExpr(st.Units); err != nil {
					return err
				}
			case *If:
				if err := control(st.ID, st.Cond); err != nil {
					return err
				}
				if err := walk(st.Then); err != nil {
					return err
				}
				if err := walk(st.Else); err != nil {
					return err
				}
			case *While:
				if err := control(st.ID, st.Cond); err != nil {
					return err
				}
				if err := walk(st.Body); err != nil {
					return err
				}
			case *Loop:
				if err := control(st.ID, st.Count); err != nil {
					return err
				}
				if st.IndexVar != "" {
					vars[st.IndexVar] = true
				}
				if err := walk(st.Body); err != nil {
					return err
				}
			case *Call:
				if err := control(st.ID, st.Target); err != nil {
					return err
				}
				for _, a := range sortedKeys(st.Funcs) {
					if err := walk(st.Funcs[a]); err != nil {
						return err
					}
				}
			case *FeatAdd:
				if err := checkExpr(st.Amount); err != nil {
					return err
				}
			case *FeatCall:
				if err := checkExpr(st.Target); err != nil {
					return err
				}
			default:
				return fmt.Errorf("taskir: unknown statement type %T", s)
			}
		}
		return nil
	}
	return walk(p.Body)
}

// StmtCount returns the static number of statements in the program,
// counting nested bodies. Used by tests and by slice size reporting.
func (p *Program) StmtCount() int {
	var count func(stmts []Stmt) int
	count = func(stmts []Stmt) int {
		n := 0
		for _, s := range stmts {
			n++
			switch st := s.(type) {
			case *If:
				n += count(st.Then) + count(st.Else)
			case *While:
				n += count(st.Body)
			case *Loop:
				n += count(st.Body)
			case *Call:
				for _, b := range st.Funcs {
					n += count(b)
				}
			}
		}
		return n
	}
	return count(p.Body)
}
