package taskir

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func mustRun(t *testing.T, p *Program, env *Env, rec FeatureRecorder) Work {
	t.Helper()
	w, err := Run(p, env, RunOptions{Recorder: rec})
	if err != nil {
		t.Fatalf("Run(%s): %v", p.Name, err)
	}
	return w
}

type mapRecorder struct {
	adds  map[int]int64
	calls map[int][]int64
}

func newMapRecorder() *mapRecorder {
	return &mapRecorder{adds: map[int]int64{}, calls: map[int][]int64{}}
}

func (m *mapRecorder) AddFeature(fid int, amount int64) { m.adds[fid] += amount }
func (m *mapRecorder) RecordCall(fid int, addr int64)   { m.calls[fid] = append(m.calls[fid], addr) }

func TestExprEval(t *testing.T) {
	env := NewEnv(map[string]int64{"g": 7})
	env.Set("x", 10)
	cases := []struct {
		expr Expr
		want int64
	}{
		{Const(5), 5},
		{Var("x"), 10},
		{Var("g"), 7},
		{Var("missing"), 0},
		{Add(Var("x"), Const(3)), 13},
		{Sub(Var("x"), Var("g")), 3},
		{Mul(Const(4), Const(-2)), -8},
		{Div(Const(9), Const(2)), 4},
		{Div(Const(9), Const(0)), 0},
		{Mod(Const(9), Const(4)), 1},
		{Mod(Const(9), Const(0)), 0},
		{Min(Const(3), Const(-1)), -1},
		{Max(Const(3), Const(-1)), 3},
		{LT(Const(1), Const(2)), 1},
		{LE(Const(2), Const(2)), 1},
		{GT(Const(1), Const(2)), 0},
		{GE(Const(2), Const(2)), 1},
		{EQ(Var("x"), Const(10)), 1},
		{NE(Var("x"), Const(10)), 0},
		{And(Const(1), Const(0)), 0},
		{And(Const(2), Const(3)), 1},
		{Or(Const(0), Const(5)), 1},
		{Or(Const(0), Const(0)), 0},
		{&Not{Const(0)}, 1},
		{&Not{Const(7)}, 0},
	}
	for _, c := range cases {
		if got := c.expr.Eval(env); got != c.want {
			t.Errorf("%s = %d, want %d", c.expr, got, c.want)
		}
	}
}

// The compiled arithmetic must agree with Op.apply, the definition
// Bin.Eval and the analysis layer's constant folding compute through.
// Each one-statement program runs one operator with each operand a
// constant, a slot or a nested expression, on either side, over edge
// values that include division and modulo by zero and MinInt64 / -1.
func TestCompiledArithmeticMatchesApply(t *testing.T) {
	edges := []int64{0, 1, -1, 7, -3, math.MinInt64, math.MaxInt64}
	// shapes builds an operand reading v as a constant, as the slot of
	// param name, or as a nested expression over that slot.
	shapes := []func(name string, v int64) Expr{
		func(_ string, v int64) Expr { return Const(v) },
		func(name string, _ int64) Expr { return Var(name) },
		func(name string, _ int64) Expr { return Sub(Var(name), Const(0)) },
	}
	run := func(e Expr, a, b int64) int64 {
		p := &Program{Name: "arith", Params: []string{"a", "b"}, Body: []Stmt{&Assign{Dst: "out", Expr: e}}}
		env := NewEnv(nil)
		env.SetParams(map[string]int64{"a": a, "b": b})
		if _, err := Lower(p).Run(env, RunOptions{}); err != nil {
			t.Fatal(err)
		}
		return env.Get("out")
	}
	for op := OpAdd; op <= OpOr; op++ {
		for li, lshape := range shapes {
			for ri, rshape := range shapes {
				for _, a := range edges {
					for _, b := range edges {
						e := &Bin{Op: op, L: lshape("a", a), R: rshape("b", b)}
						if got, want := run(e, a, b), op.apply(a, b); got != want {
							t.Errorf("%s with a=%d b=%d (shapes %d,%d) = %d, want %d", e, a, b, li, ri, got, want)
						}
					}
				}
			}
		}
	}
	for _, shape := range shapes {
		for _, a := range edges {
			e := &Not{shape("a", a)}
			if got, want := run(e, a, 0), b2i(a == 0); got != want {
				t.Errorf("%s with a=%d = %d, want %d", e, a, got, want)
			}
		}
	}
}

func TestExprVars(t *testing.T) {
	e := Add(Mul(Var("a"), Var("b")), &Not{Var("a")})
	got := ExprVars(e)
	want := []string{"a", "b", "a"}
	if len(got) != len(want) {
		t.Fatalf("ExprVars = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ExprVars = %v, want %v", got, want)
		}
	}
}

func TestEnvGlobalWriteThrough(t *testing.T) {
	globals := map[string]int64{"state": 1}
	env := NewEnv(globals)
	env.Set("state", 42)
	if globals["state"] != 42 {
		t.Errorf("global write did not persist: got %d", globals["state"])
	}
	env.Set("tmp", 5)
	if _, ok := globals["tmp"]; ok {
		t.Errorf("local write leaked into globals")
	}
}

func TestEnvFreezeIsolatesGlobals(t *testing.T) {
	globals := map[string]int64{"state": 1}
	env := NewEnv(globals)
	env.Freeze()
	env.Set("state", 99)
	if globals["state"] != 1 {
		t.Errorf("frozen env mutated globals: got %d", globals["state"])
	}
	if env.Get("state") != 99 {
		t.Errorf("frozen env should read its local copy, got %d", env.Get("state"))
	}
}

func TestEnvResetLocalsKeepsGlobals(t *testing.T) {
	env := NewEnv(map[string]int64{"g": 3})
	env.Set("x", 1)
	env.ResetLocals()
	if env.Get("x") != 0 {
		t.Errorf("local survived reset")
	}
	if env.Get("g") != 3 {
		t.Errorf("global lost on reset")
	}
}

func TestRunAccountsComputeWork(t *testing.T) {
	p := &Program{
		Name:    "compute",
		Globals: map[string]int64{},
		Body: []Stmt{
			&Compute{Label: "a", Work: 1000, MemNS: 500},
			&Compute{Label: "b", Work: 2000, MemNS: 1500},
		},
	}
	w := mustRun(t, p, NewEnv(p.Globals), nil)
	wantCPU := 3000 + 2*StmtCostCPU
	if math.Abs(w.CPU-wantCPU) > 1e-9 {
		t.Errorf("CPU = %g, want %g", w.CPU, wantCPU)
	}
	if math.Abs(w.MemSec-2000e-9) > 1e-15 {
		t.Errorf("MemSec = %g, want %g", w.MemSec, 2000e-9)
	}
	if w.Stmts != 2 {
		t.Errorf("Stmts = %d, want 2", w.Stmts)
	}
}

func TestRunLoopAndIf(t *testing.T) {
	p := &Program{
		Name:    "loopif",
		Params:  []string{"n"},
		Globals: map[string]int64{},
		Body: []Stmt{
			&Loop{ID: 1, Count: Var("n"), IndexVar: "i", Body: []Stmt{
				&If{ID: 2, Cond: EQ(Mod(Var("i"), Const(2)), Const(0)), Then: []Stmt{
					&Compute{Label: "even", Work: 10},
				}},
			}},
		},
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	env := NewEnv(p.Globals)
	env.SetParams(map[string]int64{"n": 5})
	rec := newMapRecorder()
	w := mustRun(t, p, env, rec)
	// 5 iterations, indices 0..4, 3 even → 3 Compute of 10.
	// Statements: loop(1) + 5×(if) + 3×(compute) = 9.
	if w.Stmts != 9 {
		t.Errorf("Stmts = %d, want 9", w.Stmts)
	}
	wantCPU := 9*StmtCostCPU + 5*LoopIterCostCPU + 30
	if math.Abs(w.CPU-wantCPU) > 1e-9 {
		t.Errorf("CPU = %g, want %g", w.CPU, wantCPU)
	}
}

func TestRunNegativeLoopCountRunsZero(t *testing.T) {
	p := &Program{
		Name:    "negloop",
		Params:  []string{"n"},
		Globals: map[string]int64{},
		Body: []Stmt{
			&Loop{ID: 1, Count: Var("n"), Body: []Stmt{&Compute{Work: 10}}},
		},
	}
	env := NewEnv(p.Globals)
	env.SetParams(map[string]int64{"n": -3})
	w := mustRun(t, p, env, nil)
	if w.Stmts != 1 {
		t.Errorf("negative count should not iterate, Stmts = %d", w.Stmts)
	}
}

func TestRunCallDispatch(t *testing.T) {
	p := &Program{
		Name:    "dispatch",
		Params:  []string{"cmd"},
		Globals: map[string]int64{},
		Body: []Stmt{
			&Call{ID: 1, Target: Var("cmd"), Funcs: map[int64][]Stmt{
				1: {&Compute{Label: "fast", Work: 10}},
				2: {&Compute{Label: "slow", Work: 1000}},
			}},
		},
	}
	run := func(cmd int64) Work {
		env := NewEnv(p.Globals)
		env.SetParams(map[string]int64{"cmd": cmd})
		return mustRun(t, p, env, nil)
	}
	fast, slow, unknown := run(1), run(2), run(99)
	if !(fast.CPU < slow.CPU) {
		t.Errorf("dispatch cost not target-dependent: fast=%g slow=%g", fast.CPU, slow.CPU)
	}
	if unknown.Stmts != 1 {
		t.Errorf("unknown address should be a no-op body, Stmts=%d", unknown.Stmts)
	}
}

func TestRunFeatureRecording(t *testing.T) {
	p := &Program{
		Name:    "features",
		Params:  []string{"n", "cmd"},
		Globals: map[string]int64{},
		Body: []Stmt{
			&FeatAdd{FID: 0, Amount: Var("n")},
			&Loop{ID: 1, Count: Var("n"), Body: []Stmt{
				&FeatAdd{FID: 1, Amount: Const(1)},
			}},
			&FeatCall{FID: 2, Target: Var("cmd")},
		},
	}
	env := NewEnv(p.Globals)
	env.SetParams(map[string]int64{"n": 4, "cmd": 77})
	rec := newMapRecorder()
	mustRun(t, p, env, rec)
	if rec.adds[0] != 4 || rec.adds[1] != 4 {
		t.Errorf("feature adds = %v, want both 4", rec.adds)
	}
	if len(rec.calls[2]) != 1 || rec.calls[2][0] != 77 {
		t.Errorf("call record = %v, want [77]", rec.calls[2])
	}
}

func TestRunNilRecorderSafe(t *testing.T) {
	p := &Program{
		Name:    "nilrec",
		Globals: map[string]int64{},
		Body:    []Stmt{&FeatAdd{FID: 0, Amount: Const(1)}, &FeatCall{FID: 1, Target: Const(2)}},
	}
	mustRun(t, p, NewEnv(p.Globals), nil)
}

func TestRunStepLimit(t *testing.T) {
	p := &Program{
		Name:    "runaway",
		Globals: map[string]int64{},
		Body: []Stmt{
			&Loop{ID: 1, Count: Const(1 << 40), Body: []Stmt{&Compute{Work: 1}}},
		},
	}
	_, err := Run(p, NewEnv(p.Globals), RunOptions{MaxSteps: 1000})
	if err != ErrStepLimit {
		t.Fatalf("want ErrStepLimit, got %v", err)
	}
}

// Loop iterations count against MaxSteps, so a loop whose body is
// empty is bounded by the budget, not by its count or its while guard
// (1<<62 iterations would otherwise run for centuries). The iterations
// still cost no statement: the step budget is all they change.
func TestRunStepLimitCountsLoopIterations(t *testing.T) {
	for _, s := range []Stmt{
		&Loop{ID: 1, Count: Const(100_000_000)},
		&While{ID: 1, Cond: Const(1), MaxIter: 100_000_000},
	} {
		p := &Program{Name: "empty-loop", Body: []Stmt{s}}
		w, err := Run(p, NewEnv(nil), RunOptions{MaxSteps: 1000})
		if !errors.Is(err, ErrStepLimit) {
			t.Errorf("%s: want ErrStepLimit, got %v", s, err)
		}
		// The loop statement takes one step; the 1000th iteration
		// exhausts the budget.
		if w.Stmts != 1 || w.CPU != StmtCostCPU+1000*LoopIterCostCPU {
			t.Errorf("%s: work %+v, want 1 stmt and %g CPU", s, w, StmtCostCPU+1000*LoopIterCostCPU)
		}
	}
}

func TestValidateCatchesErrors(t *testing.T) {
	cases := []struct {
		name string
		p    *Program
		want string
	}{
		{
			"unassigned read",
			&Program{Globals: map[string]int64{}, Body: []Stmt{&Assign{Dst: "x", Expr: Var("y")}}},
			"unassigned",
		},
		{
			"duplicate fid",
			&Program{Globals: map[string]int64{}, Body: []Stmt{
				&Loop{ID: 1, Count: Const(1)},
				&If{ID: 1, Cond: Const(1)},
			}},
			"duplicate control-flow ID",
		},
		{
			"param global collision",
			&Program{Params: []string{"x"}, Globals: map[string]int64{"x": 0}},
			"both param and global",
		},
		{
			"negative cost",
			&Program{Globals: map[string]int64{}, Body: []Stmt{&Compute{Work: -1}}},
			"negative cost",
		},
	}
	for _, c := range cases {
		err := c.p.Validate()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Validate = %v, want containing %q", c.name, err, c.want)
		}
	}
}

func TestValidateAcceptsIndexVar(t *testing.T) {
	p := &Program{
		Globals: map[string]int64{},
		Body: []Stmt{
			&Loop{ID: 1, Count: Const(3), IndexVar: "i", Body: []Stmt{
				&Assign{Dst: "x", Expr: Var("i")},
			}},
		},
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestStmtCount(t *testing.T) {
	p := &Program{
		Globals: map[string]int64{},
		Body: []Stmt{
			&If{ID: 1, Cond: Const(1),
				Then: []Stmt{&Compute{}},
				Else: []Stmt{&Compute{}, &Compute{}}},
			&Loop{ID: 2, Count: Const(5), Body: []Stmt{&Compute{}}},
		},
	}
	if got := p.StmtCount(); got != 6 {
		t.Errorf("StmtCount = %d, want 6", got)
	}
}

func TestCloneIsolatesContainers(t *testing.T) {
	p := &Program{
		Name:    "orig",
		Params:  []string{"a"},
		Globals: map[string]int64{"g": 1},
		Body:    []Stmt{&Compute{Work: 1}},
	}
	q := p.Clone()
	q.Globals["g"] = 99
	q.Params[0] = "b"
	if p.Globals["g"] != 1 || p.Params[0] != "a" {
		t.Errorf("Clone shares mutable containers")
	}
}

func TestWorkTimeAt(t *testing.T) {
	w := Work{CPU: 1e6, MemSec: 0.001}
	got := w.TimeAt(1e9)
	want := 0.001 + 1e6/1e9
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("TimeAt = %g, want %g", got, want)
	}
}

// Property: execution time is monotonically non-increasing in frequency.
func TestWorkTimeMonotoneProperty(t *testing.T) {
	f := func(cpu uint32, memUS uint16, f1, f2 uint32) bool {
		w := Work{CPU: float64(cpu), MemSec: float64(memUS) * 1e-6}
		lo := 1e8 + float64(f1%13)*1e8
		hi := lo + 1e8 + float64(f2%13)*1e8
		return w.TimeAt(hi) <= w.TimeAt(lo)+1e-15
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: interpreting the same program twice in identical envs gives
// identical work (the interpreter is deterministic).
func TestRunDeterministicProperty(t *testing.T) {
	p := &Program{
		Name:    "det",
		Params:  []string{"n", "m"},
		Globals: map[string]int64{"acc": 0},
		Body: []Stmt{
			&Loop{ID: 1, Count: Mod(Var("n"), Const(50)), IndexVar: "i", Body: []Stmt{
				&If{ID: 2, Cond: LT(Var("i"), Var("m")), Then: []Stmt{
					&Compute{Work: 7, MemNS: 3},
				}},
				&Assign{Dst: "acc", Expr: Add(Var("acc"), Var("i"))},
			}},
		},
	}
	f := func(n, m uint16) bool {
		run := func() Work {
			env := NewEnv(map[string]int64{"acc": 0})
			env.SetParams(map[string]int64{"n": int64(n), "m": int64(m)})
			w, err := Run(p, env, RunOptions{})
			if err != nil {
				return Work{CPU: -1}
			}
			return w
		}
		a, b := run(), run()
		return a == b && a.CPU >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: every randomly generated program validates and interprets
// without error (the generator is the substrate for slicer fuzzing).
func TestRandomProgramAlwaysValid(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		p := RandomProgram(rng)
		if err := p.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		env := NewEnv(p.Globals)
		env.SetParams(map[string]int64{"p0": rng.Int63n(20), "p1": rng.Int63n(20), "p2": rng.Int63n(20)})
		if _, err := Run(p, env, RunOptions{MaxSteps: 1_000_000}); err != nil {
			t.Fatalf("trial %d: interpret: %v", trial, err)
		}
	}
}

func TestFormat(t *testing.T) {
	p := &Program{
		Name:    "demo",
		Params:  []string{"n"},
		Globals: map[string]int64{"g": 2},
		Body: []Stmt{
			&Assign{Dst: "m", Expr: Add(Var("n"), Var("g"))},
			&If{ID: 1, Cond: GT(Var("m"), Const(0)),
				Then: []Stmt{&Compute{Label: "w", Work: 10}},
				Else: []Stmt{&Assign{Dst: "m", Expr: Const(0)}}},
			&Loop{ID: 2, Count: Var("m"), IndexVar: "i", Body: []Stmt{
				&FeatAdd{FID: 0, Amount: Const(1)},
			}},
			&Call{ID: 3, Target: Var("n"), Funcs: map[int64][]Stmt{
				1: {&Compute{Label: "f", Work: 5}},
				2: {},
			}},
		},
	}
	out := Format(p)
	for _, want := range []string{
		"task demo(n)", "global g = 2", "if#1", "} else {",
		"loop#2 i in 0..m", "feature[0] += 1", "call#3 (*n)", "addr 1:",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Format missing %q in:\n%s", want, out)
		}
	}
	// Empty call bodies are omitted.
	if strings.Contains(out, "addr 2:") {
		t.Errorf("empty body rendered:\n%s", out)
	}
}

func TestWhileLoop(t *testing.T) {
	p := &Program{
		Name:    "walk",
		Params:  []string{"n"},
		Globals: map[string]int64{},
		Body: []Stmt{
			&Assign{Dst: "node", Expr: Var("n")},
			&While{ID: 1, Cond: GT(Var("node"), Const(0)), Body: []Stmt{
				&Assign{Dst: "node", Expr: Sub(Var("node"), Const(1))},
				&Compute{Label: "visit", Work: 10},
			}},
		},
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	env := NewEnv(p.Globals)
	env.SetParams(map[string]int64{"n": 5})
	w := mustRun(t, p, env, nil)
	// 2 top stmts + 5 × (assign + compute) = 12 statements.
	if w.Stmts != 12 {
		t.Errorf("Stmts = %d, want 12", w.Stmts)
	}
	if w.CPU != 12*StmtCostCPU+5*LoopIterCostCPU+50 {
		t.Errorf("CPU = %g", w.CPU)
	}
}

func TestWhileLoopRunawayGuard(t *testing.T) {
	p := &Program{
		Name:    "spin",
		Globals: map[string]int64{},
		Body: []Stmt{
			&While{ID: 1, Cond: Const(1), Body: []Stmt{&Compute{Work: 1}}, MaxIter: 10},
		},
	}
	if _, err := Run(p, NewEnv(p.Globals), RunOptions{}); err == nil {
		t.Fatal("runaway while should error")
	}
}

func TestWhileCountAndFormat(t *testing.T) {
	p := &Program{
		Globals: map[string]int64{},
		Params:  []string{"n"},
		Body: []Stmt{
			&Assign{Dst: "v", Expr: Var("n")},
			&While{ID: 9, Cond: GT(Var("v"), Const(0)), Body: []Stmt{
				&Assign{Dst: "v", Expr: Sub(Var("v"), Const(1))},
			}},
		},
	}
	if p.StmtCount() != 3 {
		t.Errorf("StmtCount = %d, want 3", p.StmtCount())
	}
	if !strings.Contains(Format(p), "while#9") {
		t.Errorf("Format missing while:\n%s", Format(p))
	}
}
