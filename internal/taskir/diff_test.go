package taskir_test

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/instrument"
	"repro/internal/slicer"
	"repro/internal/taskir"
	"repro/internal/workload"
)

// refRun is the name-map interpreter that the slot interpreter
// replaced, kept as the reference the differential tests hold it to:
// it walks the statement tree and reads and writes every variable
// through Env's name API. Its one change from the original is that
// loop iterations count against the step budget.
func refRun(p *taskir.Program, env *taskir.Env, opts taskir.RunOptions) (taskir.Work, error) {
	maxSteps := opts.MaxSteps
	if maxSteps == 0 {
		maxSteps = 50_000_000
	}
	in := &refInterp{env: env, rec: opts.Recorder, remaining: maxSteps}
	err := in.block(p.Body)
	return in.work, err
}

type refInterp struct {
	env       *taskir.Env
	rec       taskir.FeatureRecorder
	work      taskir.Work
	remaining int64
}

func (in *refInterp) tick() error {
	in.remaining--
	if in.remaining < 0 {
		return taskir.ErrStepLimit
	}
	return nil
}

func (in *refInterp) block(stmts []taskir.Stmt) error {
	for _, s := range stmts {
		if err := in.stmt(s); err != nil {
			return err
		}
	}
	return nil
}

func (in *refInterp) stmt(s taskir.Stmt) error {
	in.work.Stmts++
	in.work.CPU += taskir.StmtCostCPU
	if err := in.tick(); err != nil {
		return err
	}
	switch st := s.(type) {
	case *taskir.Assign:
		in.env.Set(st.Dst, st.Expr.Eval(in.env))
	case *taskir.Compute:
		in.work.CPU += st.Work
		in.work.MemSec += st.MemNS * 1e-9
	case *taskir.ComputeScaled:
		if n := st.Units.Eval(in.env); n > 0 {
			in.work.CPU += st.WorkPer * float64(n)
			in.work.MemSec += st.MemNSPer * float64(n) * 1e-9
		}
	case *taskir.If:
		if st.Cond.Eval(in.env) != 0 {
			return in.block(st.Then)
		}
		return in.block(st.Else)
	case *taskir.While:
		maxIter := st.MaxIter
		if maxIter == 0 {
			maxIter = 100_000
		}
		for i := int64(0); st.Cond.Eval(in.env) != 0; i++ {
			if i >= maxIter {
				return fmt.Errorf("taskir: while#%d exceeded %d iterations", st.ID, maxIter)
			}
			in.work.CPU += taskir.LoopIterCostCPU
			if err := in.tick(); err != nil {
				return err
			}
			if err := in.block(st.Body); err != nil {
				return err
			}
		}
	case *taskir.Loop:
		n := st.Count.Eval(in.env)
		for i := int64(0); i < n; i++ {
			in.work.CPU += taskir.LoopIterCostCPU
			if err := in.tick(); err != nil {
				return err
			}
			if st.IndexVar != "" {
				in.env.Set(st.IndexVar, i)
			}
			if err := in.block(st.Body); err != nil {
				return err
			}
		}
	case *taskir.Call:
		if body, ok := st.Funcs[st.Target.Eval(in.env)]; ok {
			return in.block(body)
		}
	case *taskir.FeatAdd:
		if in.rec != nil {
			in.rec.AddFeature(st.FID, st.Amount.Eval(in.env))
		}
	case *taskir.FeatCall:
		if in.rec != nil {
			in.rec.RecordCall(st.FID, st.Target.Eval(in.env))
		}
	default:
		return fmt.Errorf("taskir: cannot interpret statement type %T", s)
	}
	return nil
}

// callLog is a FeatureRecorder that keeps every call in order.
type callLog []string

func (c *callLog) AddFeature(fid int, amount int64) {
	*c = append(*c, fmt.Sprintf("add %d %d", fid, amount))
}

func (c *callLog) RecordCall(fid int, addr int64) {
	*c = append(*c, fmt.Sprintf("call %d %d", fid, addr))
}

// diffCase is a sequence of jobs on one environment.
type diffCase struct {
	prog    *taskir.Program
	globals map[string]int64
	jobs    []map[string]int64
	// frozen freezes the environment, as a prediction slice runs.
	frozen   bool
	maxSteps int64
}

// checkDiff runs c's jobs through the slot interpreter and the
// reference, each on its own copy of the globals, and reports the
// first divergence: work (floats compared bit for bit), error, the
// caller's globals map, the value of every defined name, undefined
// reads, or the recorder's calls. Both sides keep their environment
// across jobs and clear its locals between them.
func checkDiff(c diffCase) error {
	gotGlobals, wantGlobals := copyMap(c.globals), copyMap(c.globals)
	got, want := taskir.NewEnv(gotGlobals), taskir.NewEnv(wantGlobals)
	if c.frozen {
		got.Freeze()
		want.Freeze()
	}
	got.TrackReads()
	want.TrackReads()
	lowered := taskir.Lower(c.prog)
	for j, params := range c.jobs {
		got.ResetLocals()
		want.ResetLocals()
		got.SetParams(params)
		want.SetParams(params)
		// Even jobs run without a recorder: feature statements then
		// evaluate nothing, so they record no undefined read either.
		var gotCalls, wantCalls callLog
		gotOpts := taskir.RunOptions{MaxSteps: c.maxSteps}
		wantOpts := gotOpts
		if j%2 == 1 {
			gotOpts.Recorder, wantOpts.Recorder = &gotCalls, &wantCalls
		}
		gw, gerr := lowered.Run(got, gotOpts)
		ww, werr := refRun(c.prog, want, wantOpts)
		if math.Float64bits(gw.CPU) != math.Float64bits(ww.CPU) ||
			math.Float64bits(gw.MemSec) != math.Float64bits(ww.MemSec) || gw.Stmts != ww.Stmts {
			return fmt.Errorf("job %d: work %+v, reference %+v", j, gw, ww)
		}
		if fmt.Sprint(gerr) != fmt.Sprint(werr) || errors.Is(gerr, taskir.ErrStepLimit) != errors.Is(werr, taskir.ErrStepLimit) {
			return fmt.Errorf("job %d: error %v, reference %v", j, gerr, werr)
		}
		if !reflect.DeepEqual(gotGlobals, wantGlobals) {
			return fmt.Errorf("job %d: globals %v, reference %v", j, gotGlobals, wantGlobals)
		}
		// String lists every defined name with its Get value.
		if got.String() != want.String() {
			return fmt.Errorf("job %d: env %s, reference %s", j, got, want)
		}
		if !reflect.DeepEqual(got.UndefinedReads(), want.UndefinedReads()) {
			return fmt.Errorf("job %d: undefined reads %v, reference %v", j, got.UndefinedReads(), want.UndefinedReads())
		}
		if !reflect.DeepEqual(gotCalls, wantCalls) {
			return fmt.Errorf("job %d: recorder calls %v, reference %v", j, gotCalls, wantCalls)
		}
	}
	return nil
}

func copyMap(m map[string]int64) map[string]int64 {
	if m == nil {
		return nil
	}
	c := make(map[string]int64, len(m))
	for k, v := range m {
		c[k] = v
	}
	return c
}

// randomJobs draws n jobs of values in [-5, 20] for p's params.
func randomJobs(rng *rand.Rand, p *taskir.Program, n int) []map[string]int64 {
	jobs := make([]map[string]int64, n)
	for j := range jobs {
		jobs[j] = map[string]int64{}
		for _, name := range p.Params {
			jobs[j][name] = rng.Int63n(26) - 5
		}
	}
	return jobs
}

// workloadForms returns each workload's task program raw, instrumented
// and sliced (every feature kept).
func workloadForms() []*workloadForm {
	var forms []*workloadForm
	for _, w := range workload.All() {
		ip := instrument.Instrument(w.Prog)
		sl := slicer.Extract(ip, nil)
		for _, p := range []*taskir.Program{w.Prog, ip.Prog, sl.Prog} {
			forms = append(forms, &workloadForm{w: w, prog: p})
		}
	}
	return forms
}

type workloadForm struct {
	w    *workload.Workload
	prog *taskir.Program
}

// The slot interpreter must match the name-map reference on 500
// random programs and on all eight workloads raw, instrumented and
// sliced, frozen and not.
func TestSlotInterpreterMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 500; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := taskir.RandomProgram(rng)
		jobs := randomJobs(rng, p, 3)
		for _, frozen := range []bool{false, true} {
			c := diffCase{prog: p, globals: p.Globals, jobs: jobs, frozen: frozen}
			if err := checkDiff(c); err != nil {
				t.Fatalf("random program %d (frozen %v): %v\n%s", seed, frozen, err, taskir.Format(p))
			}
		}
	}
	for _, f := range workloadForms() {
		gen := f.w.NewGen(7)
		jobs := make([]map[string]int64, 10)
		for i := range jobs {
			jobs[i] = gen.Next(i)
		}
		for _, frozen := range []bool{false, true} {
			c := diffCase{prog: f.prog, globals: f.w.FreshGlobals(), jobs: jobs, frozen: frozen}
			if err := checkDiff(c); err != nil {
				t.Errorf("%s (frozen %v): %v", f.prog.Name, frozen, err)
			}
		}
	}
}

// The layering rules the slot frame must reproduce where a program
// reaches past Validate: a param that shares a global's name, a param
// the program never reads, a frozen write then read of a global, and
// a read of a name nothing defines.
func TestSlotInterpreterLayering(t *testing.T) {
	shadow := &taskir.Program{
		Name:    "shadow",
		Params:  []string{"g"},
		Globals: map[string]int64{"g": 1, "h": 2},
		Body: []taskir.Stmt{
			&taskir.Assign{Dst: "y", Expr: taskir.Var("g")},
			&taskir.Assign{Dst: "g", Expr: taskir.Add(taskir.Var("g"), taskir.Const(10))},
			&taskir.Assign{Dst: "z", Expr: taskir.Var("g")},
			&taskir.Assign{Dst: "h", Expr: taskir.Const(42)},
			&taskir.Assign{Dst: "w", Expr: taskir.Add(taskir.Var("h"), taskir.Var("ghost"))},
			&taskir.FeatAdd{FID: 0, Amount: taskir.Var("z")},
			&taskir.FeatAdd{FID: 1, Amount: taskir.Var("unrecorded")},
		},
	}
	jobs := []map[string]int64{{"g": 5, "unused": 7}, {"g": 6, "unused": 8}}
	for _, frozen := range []bool{false, true} {
		if err := checkDiff(diffCase{prog: shadow, globals: shadow.Globals, jobs: jobs, frozen: frozen}); err != nil {
			t.Fatalf("frozen %v: %v", frozen, err)
		}
	}

	// The expected values, spelled out for one unfrozen job: reads
	// prefer the param, the write lands in the global, and the unread
	// param stays visible.
	globals := copyMap(shadow.Globals)
	env := taskir.NewEnv(globals)
	env.TrackReads()
	env.SetParams(jobs[0])
	if _, err := taskir.Run(shadow, env, taskir.RunOptions{}); err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]int64{"y": 5, "z": 5, "g": 5, "h": 42, "w": 42, "unused": 7} {
		if got := env.Get(name); got != want {
			t.Errorf("Get(%q) = %d, want %d", name, got, want)
		}
	}
	if globals["g"] != 15 || globals["h"] != 42 {
		t.Errorf("globals = %v, want g=15 h=42", globals)
	}
	if got := env.UndefinedReads(); !reflect.DeepEqual(got, []string{"ghost"}) {
		t.Errorf("UndefinedReads = %v, want [ghost]", got)
	}

	// Frozen: the global write lands in a local copy that later reads
	// see, and the caller's map never changes.
	globals = copyMap(shadow.Globals)
	env = taskir.NewEnv(globals)
	env.Freeze()
	env.SetParams(jobs[0])
	if _, err := taskir.Run(shadow, env, taskir.RunOptions{}); err != nil {
		t.Fatal(err)
	}
	if env.Get("h") != 42 || env.Get("w") != 42 || env.Get("g") != 15 {
		t.Errorf("frozen env: h=%d w=%d g=%d, want 42 42 15", env.Get("h"), env.Get("w"), env.Get("g"))
	}
	if !reflect.DeepEqual(globals, shadow.Globals) {
		t.Errorf("frozen run changed the caller's globals: %v", globals)
	}
}

// The caller's maps are brought up to date on every exit, not only on
// success: after the step limit and after a while guard, both
// interpreters leave the same state behind.
func TestSlotInterpreterErrorExits(t *testing.T) {
	progs := []*taskir.Program{
		{Name: "steps", Globals: map[string]int64{"g": 0}, Body: []taskir.Stmt{
			&taskir.Loop{ID: 1, Count: taskir.Const(1 << 40), IndexVar: "i", Body: []taskir.Stmt{
				&taskir.Assign{Dst: "g", Expr: taskir.Add(taskir.Var("g"), taskir.Var("i"))},
				&taskir.Assign{Dst: "t", Expr: taskir.Var("missing")},
			}},
		}},
		{Name: "guard", Globals: map[string]int64{"g": 0}, Body: []taskir.Stmt{
			&taskir.While{ID: 1, Cond: taskir.Const(1), MaxIter: 50, Body: []taskir.Stmt{
				&taskir.Assign{Dst: "g", Expr: taskir.Add(taskir.Var("g"), taskir.Const(3))},
				&taskir.FeatAdd{FID: 2, Amount: taskir.Var("g")},
			}},
		}},
	}
	for _, p := range progs {
		for _, frozen := range []bool{false, true} {
			c := diffCase{prog: p, globals: p.Globals, jobs: []map[string]int64{{}, {}}, frozen: frozen, maxSteps: 1000}
			if err := checkDiff(c); err != nil {
				t.Errorf("%s (frozen %v): %v", p.Name, frozen, err)
			}
		}
	}
}

// A counted loop over straight-line Compute statements, or none, runs
// as one closure only when the step budget covers every iteration. At
// the edge of the budget, one iteration past it and far past it, it
// must leave the reference's work, error and index value behind, and
// the budget it leaves must stop the statements after it where the
// reference stops.
func TestComputeLoopAtStepBudget(t *testing.T) {
	tail := []taskir.Stmt{&taskir.Compute{Work: 5}, &taskir.Compute{Work: 6}, &taskir.Compute{Work: 7}}
	progs := []*taskir.Program{
		{Name: "computes", Params: []string{"n"}, Globals: map[string]int64{"g": 0}, Body: append([]taskir.Stmt{
			&taskir.Compute{Work: 1},
			&taskir.Loop{ID: 1, Count: taskir.Var("n"), IndexVar: "g", Body: []taskir.Stmt{
				&taskir.Compute{Work: 3, MemNS: 7},
				&taskir.Compute{Work: 0.1, MemNS: 0.3},
			}},
		}, tail...)},
		{Name: "empty", Params: []string{"n"}, Globals: map[string]int64{"g": 0}, Body: append([]taskir.Stmt{
			&taskir.Compute{Work: 1},
			&taskir.Loop{ID: 1, Count: taskir.Var("n"), IndexVar: "g"},
		}, tail...)},
	}
	var jobs []map[string]int64
	for _, n := range []int64{331, 332, 333, 997, 998, 999, 1 << 40, 0, -5} {
		jobs = append(jobs, map[string]int64{"n": n})
	}
	for _, p := range progs {
		for _, frozen := range []bool{false, true} {
			c := diffCase{prog: p, globals: p.Globals, jobs: jobs, frozen: frozen, maxSteps: 1000}
			if err := checkDiff(c); err != nil {
				t.Errorf("%s (frozen %v): %v", p.Name, frozen, err)
			}
		}
	}
}

// A lowered program never runs stale code: after its Body is edited,
// Run executes the edited body.
func TestLoweredFollowsBodyEdits(t *testing.T) {
	p := &taskir.Program{Name: "edit", Body: []taskir.Stmt{&taskir.Compute{Work: 1}}}
	l := taskir.Lower(p)
	run := func() taskir.Work {
		w, err := l.Run(taskir.NewEnv(nil), taskir.RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	if w := run(); w.Stmts != 1 {
		t.Fatalf("Stmts = %d, want 1", w.Stmts)
	}
	p.Body = append(p.Body, &taskir.Compute{Work: 2})
	if w := run(); w.Stmts != 2 || w.CPU != 2*taskir.StmtCostCPU+3 {
		t.Errorf("after append: %+v", w)
	}
	p.Body[0] = &taskir.Compute{Work: 10}
	if w := run(); w.CPU != 2*taskir.StmtCostCPU+12 {
		t.Errorf("after replacing a statement: %+v", w)
	}
}

// TestLoweredRunAllocs gates the interpreter's allocations: once a
// warm-up run has filled the pool of frames and slot arrays, a run of
// any workload form, raw, instrumented or sliced, allocates nothing.
// AllocsPerRun divides the count by the runs in integers, so a pool
// emptied by a collection during the measurement still reads 0.
func TestLoweredRunAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("AllocsPerRun is not meaningful under the race detector")
	}
	forms := workloadForms()
	for i, f := range forms {
		name := f.prog.Name + []string{"/raw", "/instrumented", "/sliced"}[i%3]
		l := taskir.Lower(f.prog)
		env := taskir.NewEnv(f.w.FreshGlobals())
		if i%3 == 2 {
			env.Freeze()
		}
		env.SetParams(f.w.NewGen(1).Next(0))
		allocs := testing.AllocsPerRun(50, func() {
			if _, err := l.Run(env, taskir.RunOptions{}); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 0 {
			t.Errorf("%s: %.2f allocations per run, want 0", name, allocs)
		}
	}
}

// FuzzProgramJSON decodes a task program and, when it decodes and
// validates, runs up to three jobs of it on one environment, frozen
// and not, through the slot interpreter and the name-map reference.
// They must agree on everything checkDiff compares, and neither may
// panic. MaxSteps bounds every run, loops included.
func FuzzProgramJSON(f *testing.F) {
	add := func(p *taskir.Program) {
		data, err := taskir.MarshalProgram(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	for _, form := range workloadForms() {
		add(form.prog)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20; i++ {
		add(taskir.RandomProgram(rng))
	}
	for _, s := range []taskir.Stmt{
		&taskir.Loop{ID: 1, Count: taskir.Const(100_000_000)},
		&taskir.Loop{ID: 1, Count: taskir.Const(1 << 62)},
		&taskir.While{ID: 1, Cond: taskir.Const(1), MaxIter: 100_000_000},
	} {
		add(&taskir.Program{Name: "empty-loop", Body: []taskir.Stmt{s}})
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := taskir.UnmarshalProgram(data)
		if err != nil || p.Validate() != nil {
			return
		}
		jobs := make([]map[string]int64, 1+len(data)%3)
		for j := range jobs {
			jobs[j] = map[string]int64{}
			for k, name := range p.Params {
				jobs[j][name] = int64(j*7+k*3) - 4
			}
		}
		for _, frozen := range []bool{false, true} {
			c := diffCase{prog: p, globals: p.Globals, jobs: jobs, frozen: frozen, maxSteps: 10_000}
			if err := checkDiff(c); err != nil {
				t.Fatalf("frozen %v: %v\n%s", frozen, err, taskir.Format(p))
			}
		}
	})
}
