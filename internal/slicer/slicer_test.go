package slicer

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/features"
	"repro/internal/instrument"
	"repro/internal/taskir"
)

// videoTask models a decoder-like task: per-job work depends on a
// derived trip count, a mode branch, and an indirect dispatch; one
// assignment chain feeds the features while another ("dead" for
// prediction) feeds only computation.
func videoTask() *taskir.Program {
	return &taskir.Program{
		Name:    "video",
		Params:  []string{"frameType", "mbCount", "quality"},
		Globals: map[string]int64{"refFrames": 1, "frameNo": 0},
		Body: []taskir.Stmt{
			// Feature-relevant chain.
			&taskir.Assign{Dst: "blocks", Expr: taskir.Mul(taskir.Var("mbCount"), taskir.Const(4))},
			// Dead-for-prediction chain: feeds only compute scaling.
			&taskir.Assign{Dst: "lumaBias", Expr: taskir.Add(taskir.Var("quality"), taskir.Const(3))},
			&taskir.If{ID: 1, Cond: taskir.EQ(taskir.Var("frameType"), taskir.Const(0)),
				Then: []taskir.Stmt{ // I-frame: intra-predict every block
					&taskir.Loop{ID: 2, Count: taskir.Var("blocks"), IndexVar: "b", Body: []taskir.Stmt{
						&taskir.Compute{Label: "intra", Work: 900, MemNS: 60},
					}},
				},
				Else: []taskir.Stmt{ // P-frame: motion compensation + residuals
					&taskir.Loop{ID: 3, Count: taskir.Div(taskir.Var("blocks"), taskir.Const(2)), IndexVar: "b", Body: []taskir.Stmt{
						&taskir.Compute{Label: "mc", Work: 500, MemNS: 90},
					}},
				}},
			&taskir.Call{ID: 4, Target: taskir.Mod(taskir.Var("quality"), taskir.Const(2)), Funcs: map[int64][]taskir.Stmt{
				0: {&taskir.Compute{Label: "fastDeblock", Work: 2000}},
				1: {&taskir.Loop{ID: 5, Count: taskir.Var("mbCount"), Body: []taskir.Stmt{
					&taskir.Compute{Label: "strongDeblock", Work: 300, MemNS: 20},
				}}},
			}},
			&taskir.Assign{Dst: "frameNo", Expr: taskir.Add(taskir.Var("frameNo"), taskir.Const(1))},
			&taskir.Assign{Dst: "refFrames", Expr: taskir.Min(taskir.Add(taskir.Var("refFrames"), taskir.Const(1)), taskir.Const(4))},
		},
	}
}

func runTrace(t *testing.T, p *taskir.Program, globals, params map[string]int64) (*features.Trace, taskir.Work) {
	t.Helper()
	env := taskir.NewEnv(globals)
	env.SetParams(params)
	tr := features.NewTrace()
	w, err := taskir.Run(p, env, taskir.RunOptions{Recorder: tr})
	if err != nil {
		t.Fatal(err)
	}
	return tr, w
}

func hasCompute(stmts []taskir.Stmt) bool {
	for _, s := range stmts {
		switch st := s.(type) {
		case *taskir.Compute:
			return true
		case *taskir.If:
			if hasCompute(st.Then) || hasCompute(st.Else) {
				return true
			}
		case *taskir.Loop:
			if hasCompute(st.Body) {
				return true
			}
		case *taskir.Call:
			for _, b := range st.Funcs {
				if hasCompute(b) {
					return true
				}
			}
		}
	}
	return false
}

func TestSliceDropsAllCompute(t *testing.T) {
	ip := instrument.Instrument(videoTask())
	sl := Extract(ip, nil)
	if hasCompute(sl.Prog.Body) {
		t.Fatalf("slice still contains Compute statements")
	}
	if sl.SliceStmts >= sl.FullStmts {
		t.Fatalf("slice (%d stmts) not smaller than full program (%d)", sl.SliceStmts, sl.FullStmts)
	}
}

// Property (paper's correctness requirement): the slice computes the
// same features as the instrumented program for arbitrary inputs and
// program state.
func TestSliceFeatureEquivalence(t *testing.T) {
	ip := instrument.Instrument(videoTask())
	sl := Extract(ip, nil)
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 500; trial++ {
		globals := map[string]int64{
			"refFrames": rng.Int63n(4) + 1,
			"frameNo":   rng.Int63n(1000),
		}
		params := map[string]int64{
			"frameType": rng.Int63n(3),
			"mbCount":   rng.Int63n(200),
			"quality":   rng.Int63n(10),
		}
		fullTr, _ := runTrace(t, ip.Prog, cloneMap(globals), params)

		sliceTr := features.NewTrace()
		if _, err := sl.Run(globals, params, sliceTr); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(fullTr.Counts, sliceTr.Counts) {
			t.Fatalf("trial %d: counts diverge: full=%v slice=%v", trial, fullTr.Counts, sliceTr.Counts)
		}
		if !reflect.DeepEqual(fullTr.CallAddrs, sliceTr.CallAddrs) {
			t.Fatalf("trial %d: call addrs diverge: full=%v slice=%v", trial, fullTr.CallAddrs, sliceTr.CallAddrs)
		}
	}
}

func TestSliceDoesNotMutateGlobals(t *testing.T) {
	ip := instrument.Instrument(videoTask())
	sl := Extract(ip, nil)
	globals := map[string]int64{"refFrames": 2, "frameNo": 17}
	want := cloneMap(globals)
	if _, err := sl.Run(globals, map[string]int64{"frameType": 0, "mbCount": 10, "quality": 1}, features.NewTrace()); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(globals, want) {
		t.Fatalf("slice mutated globals: %v, want %v", globals, want)
	}
}

func TestSliceIsMuchCheaperThanTask(t *testing.T) {
	ip := instrument.Instrument(videoTask())
	sl := Extract(ip, nil)
	globals := map[string]int64{"refFrames": 1, "frameNo": 0}
	params := map[string]int64{"frameType": 0, "mbCount": 150, "quality": 1}
	_, full := runTrace(t, ip.Prog, cloneMap(globals), params)
	sliceW, err := sl.Run(globals, params, features.NewTrace())
	if err != nil {
		t.Fatal(err)
	}
	fullTime := full.TimeAt(1.4e9)
	sliceTime := sliceW.TimeAt(1.4e9)
	if sliceTime >= fullTime/3 {
		t.Fatalf("slice not cheap: slice=%.3gs full=%.3gs", sliceTime, fullTime)
	}
}

func TestFeatureSelectionShrinksSlice(t *testing.T) {
	ip := instrument.Instrument(videoTask())
	full := Extract(ip, nil)
	// Keep only the branch feature (FID of the If site).
	var branchFID int
	for _, s := range ip.Sites {
		if s.Kind == instrument.KindBranch {
			branchFID = s.FID
		}
	}
	small := Extract(ip, map[int]bool{branchFID: true})
	if small.SliceStmts >= full.SliceStmts {
		t.Fatalf("selected slice (%d) not smaller than full slice (%d)", small.SliceStmts, full.SliceStmts)
	}
	// It must still compute the branch feature correctly.
	globals := map[string]int64{"refFrames": 1, "frameNo": 0}
	params := map[string]int64{"frameType": 0, "mbCount": 30, "quality": 0}
	fullTr, _ := runTrace(t, ip.Prog, cloneMap(globals), params)
	tr := features.NewTrace()
	if _, err := small.Run(globals, params, tr); err != nil {
		t.Fatal(err)
	}
	if tr.Counts[branchFID] != fullTr.Counts[branchFID] {
		t.Fatalf("selected slice branch count %d, want %d", tr.Counts[branchFID], fullTr.Counts[branchFID])
	}
	// And it must not compute the dropped loop features.
	for fid, v := range tr.Counts {
		if fid != branchFID && v != 0 {
			t.Errorf("slice computed unneeded feature %d=%d", fid, v)
		}
	}
}

func TestEmptyNeedSetYieldsEmptySlice(t *testing.T) {
	ip := instrument.Instrument(videoTask())
	sl := Extract(ip, map[int]bool{})
	if sl.SliceStmts != 0 {
		t.Fatalf("empty need set: slice has %d stmts, want 0", sl.SliceStmts)
	}
}

// Loop-carried dependence: a feature that depends on a variable updated
// inside a loop must keep the whole update chain.
func TestSliceKeepsLoopCarriedDeps(t *testing.T) {
	p := &taskir.Program{
		Name:    "carried",
		Params:  []string{"n"},
		Globals: map[string]int64{},
		Body: []taskir.Stmt{
			&taskir.Assign{Dst: "acc", Expr: taskir.Const(0)},
			&taskir.Loop{ID: 1, Count: taskir.Var("n"), IndexVar: "i", Body: []taskir.Stmt{
				&taskir.Assign{Dst: "acc", Expr: taskir.Add(taskir.Var("acc"), taskir.Var("i"))},
				&taskir.Compute{Work: 100},
			}},
			// Inner loop whose count depends on the accumulated value.
			&taskir.Loop{ID: 2, Count: taskir.Var("acc"), Body: []taskir.Stmt{
				&taskir.Compute{Work: 50},
			}},
		},
	}
	ip := instrument.Instrument(p)
	sl := Extract(ip, nil)
	for n := int64(0); n < 10; n++ {
		fullTr, _ := runTrace(t, ip.Prog, map[string]int64{}, map[string]int64{"n": n})
		tr := features.NewTrace()
		if _, err := sl.Run(map[string]int64{}, map[string]int64{"n": n}, tr); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(fullTr.Counts, tr.Counts) {
			t.Fatalf("n=%d: counts diverge: full=%v slice=%v", n, fullTr.Counts, tr.Counts)
		}
	}
}

// Cross-branch dependence: a variable assigned in one branch of an If
// and used by a later feature must keep the If.
func TestSliceKeepsCrossBranchDeps(t *testing.T) {
	p := &taskir.Program{
		Name:    "crossbranch",
		Params:  []string{"mode"},
		Globals: map[string]int64{},
		Body: []taskir.Stmt{
			&taskir.Assign{Dst: "k", Expr: taskir.Const(1)},
			&taskir.If{ID: 1, Cond: taskir.GT(taskir.Var("mode"), taskir.Const(0)),
				Then: []taskir.Stmt{&taskir.Assign{Dst: "k", Expr: taskir.Const(10)}},
				Else: []taskir.Stmt{&taskir.Assign{Dst: "k", Expr: taskir.Const(2)}}},
			&taskir.Loop{ID: 2, Count: taskir.Var("k"), Body: []taskir.Stmt{
				&taskir.Compute{Work: 10},
			}},
		},
	}
	ip := instrument.Instrument(p)
	// Only need the loop feature; the If that defines k must survive.
	var loopFID int
	for _, s := range ip.Sites {
		if s.Kind == instrument.KindLoop {
			loopFID = s.FID
		}
	}
	sl := Extract(ip, map[int]bool{loopFID: true})
	for _, mode := range []int64{0, 1} {
		fullTr, _ := runTrace(t, ip.Prog, map[string]int64{}, map[string]int64{"mode": mode})
		tr := features.NewTrace()
		if _, err := sl.Run(map[string]int64{}, map[string]int64{"mode": mode}, tr); err != nil {
			t.Fatal(err)
		}
		if tr.Counts[loopFID] != fullTr.Counts[loopFID] {
			t.Fatalf("mode=%d: loop count %d, want %d", mode, tr.Counts[loopFID], fullTr.Counts[loopFID])
		}
	}
}

func cloneMap(m map[string]int64) map[string]int64 {
	out := make(map[string]int64, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// Fuzz property over random programs: for arbitrary task structure,
// the slice must (a) compute identical features to the instrumented
// program, (b) never mutate globals, and (c) never be more expensive
// than the instrumented program.
func TestSliceEquivalenceFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	programs := 0
	for trial := 0; trial < 400; trial++ {
		p := taskir.RandomProgram(rng)
		if err := p.Validate(); err != nil {
			t.Fatalf("trial %d: generated invalid program: %v", trial, err)
		}
		ip := instrument.Instrument(p)
		sl := Extract(ip, nil)
		programs++
		for run := 0; run < 5; run++ {
			globals := map[string]int64{"g0": rng.Int63n(10), "g1": rng.Int63n(10)}
			params := map[string]int64{
				"p0": rng.Int63n(40) - 5,
				"p1": rng.Int63n(40) - 5,
				"p2": rng.Int63n(40) - 5,
			}
			fullTr := features.NewTrace()
			fullEnv := taskir.NewEnv(cloneMap(globals))
			fullEnv.SetParams(params)
			fullW, err := taskir.Run(ip.Prog, fullEnv, taskir.RunOptions{Recorder: fullTr})
			if err != nil {
				t.Fatalf("trial %d: full run: %v", trial, err)
			}

			before := cloneMap(globals)
			sliceTr := features.NewTrace()
			sliceW, err := sl.Run(globals, params, sliceTr)
			if err != nil {
				t.Fatalf("trial %d: slice run: %v", trial, err)
			}
			if !reflect.DeepEqual(globals, before) {
				t.Fatalf("trial %d: slice mutated globals", trial)
			}
			if !reflect.DeepEqual(nonZero(fullTr.Counts), nonZero(sliceTr.Counts)) {
				t.Fatalf("trial %d run %d: feature counts diverge\nfull:  %v\nslice: %v\nprogram body: %v",
					trial, run, fullTr.Counts, sliceTr.Counts, ip.Prog.Body)
			}
			if !reflect.DeepEqual(fullTr.CallAddrs, sliceTr.CallAddrs) {
				t.Fatalf("trial %d run %d: call addrs diverge", trial, run)
			}
			if sliceW.CPU > fullW.CPU {
				t.Fatalf("trial %d: slice (%g) costs more CPU than full program (%g)",
					trial, sliceW.CPU, fullW.CPU)
			}
		}
	}
	if programs != 400 {
		t.Fatalf("ran %d programs", programs)
	}
}

func nonZero(m map[int]int64) map[int]int64 {
	out := map[int]int64{}
	for k, v := range m {
		if v != 0 {
			out[k] = v
		}
	}
	return out
}

// A loop may define a variable through its index even when its body
// slices away entirely; a feature reading the final index value after
// the loop must still see it.
func TestSliceKeepsIndexOnlyLoop(t *testing.T) {
	p := &taskir.Program{
		Name:    "idxonly",
		Params:  []string{"n"},
		Globals: map[string]int64{},
		Body: []taskir.Stmt{
			&taskir.Loop{ID: 1, Count: taskir.Var("n"), IndexVar: "i", Body: []taskir.Stmt{
				&taskir.Compute{Work: 50}, // sliced away
			}},
			// Trip count of this loop reads the final index value.
			&taskir.Loop{ID: 2, Count: taskir.Var("i"), Body: []taskir.Stmt{
				&taskir.Compute{Work: 10},
			}},
		},
	}
	ip := instrument.Instrument(p)
	sl := Extract(ip, nil)
	for _, n := range []int64{0, 1, 5, 9} {
		fullTr, _ := runTrace(t, ip.Prog, map[string]int64{}, map[string]int64{"n": n})
		tr := features.NewTrace()
		if _, err := sl.Run(map[string]int64{}, map[string]int64{"n": n}, tr); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(fullTr.Counts, tr.Counts) {
			t.Fatalf("n=%d: counts diverge: full=%v slice=%v", n, fullTr.Counts, tr.Counts)
		}
	}
}

// The while-loop pattern (Fig 7): its counter lives inside the body,
// the trip count has no closed form, and the slice must keep the
// condition's update chain to iterate identically.
func TestSliceWhileLoopEquivalence(t *testing.T) {
	p := &taskir.Program{
		Name:    "listwalk",
		Params:  []string{"n", "step"},
		Globals: map[string]int64{},
		Body: []taskir.Stmt{
			&taskir.Assign{Dst: "node", Expr: taskir.Var("n")},
			&taskir.While{ID: 1, Cond: taskir.GT(taskir.Var("node"), taskir.Const(0)), Body: []taskir.Stmt{
				&taskir.Assign{Dst: "node", Expr: taskir.Sub(taskir.Var("node"), taskir.Max(taskir.Var("step"), taskir.Const(1)))},
				&taskir.Compute{Label: "visit", Work: 500, MemNS: 40},
			}},
		},
	}
	ip := instrument.Instrument(p)
	sl := Extract(ip, nil)
	if hasCompute(sl.Prog.Body) {
		t.Fatal("slice kept compute")
	}
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		params := map[string]int64{"n": rng.Int63n(50), "step": rng.Int63n(4)}
		fullTr, fullW := runTrace(t, ip.Prog, map[string]int64{}, params)
		tr := features.NewTrace()
		sw, err := sl.Run(map[string]int64{}, params, tr)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(fullTr.Counts, tr.Counts) {
			t.Fatalf("params %v: counts %v vs %v", params, fullTr.Counts, tr.Counts)
		}
		// Zero-iteration jobs do equal work; otherwise the slice is
		// strictly cheaper (no Compute).
		if sw.CPU > fullW.CPU {
			t.Fatalf("slice dearer than task: %g vs %g", sw.CPU, fullW.CPU)
		}
	}
}

// distinctVars counts every variable name a program can mention —
// params, globals, assignment targets, loop indices, and expression
// operands — the universe the slicer's needed-variable set draws from.
func distinctVars(p *taskir.Program) int {
	vars := map[string]bool{}
	for _, v := range p.Params {
		vars[v] = true
	}
	for g := range p.Globals {
		vars[g] = true
	}
	addExpr := func(e taskir.Expr) {
		for _, v := range taskir.ExprVars(e) {
			vars[v] = true
		}
	}
	var walk func(stmts []taskir.Stmt)
	walk = func(stmts []taskir.Stmt) {
		for _, s := range stmts {
			switch st := s.(type) {
			case *taskir.Assign:
				vars[st.Dst] = true
				addExpr(st.Expr)
			case *taskir.ComputeScaled:
				addExpr(st.Units)
			case *taskir.If:
				addExpr(st.Cond)
				walk(st.Then)
				walk(st.Else)
			case *taskir.While:
				addExpr(st.Cond)
				walk(st.Body)
			case *taskir.Loop:
				if st.IndexVar != "" {
					vars[st.IndexVar] = true
				}
				addExpr(st.Count)
				walk(st.Body)
			case *taskir.Call:
				addExpr(st.Target)
				for _, b := range st.Funcs {
					walk(b)
				}
			case *taskir.FeatAdd:
				addExpr(st.Amount)
			case *taskir.FeatCall:
				addExpr(st.Target)
			}
		}
	}
	walk(p.Body)
	return len(vars)
}

// The extraction fixpoint grows a monotone variable set, so it must
// converge within |vars|+1 passes (each non-final pass adds at least
// one variable; the last pass is the stable one). Verify the bound —
// and that Stats reports it — over a large randprog sample.
func TestExtractFixpointBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(909))
	for trial := 0; trial < 300; trial++ {
		p := taskir.RandomProgram(rng)
		ip := instrument.Instrument(p)
		sl := Extract(ip, nil)
		limit := distinctVars(ip.Prog) + 1
		if sl.Stats.FixpointIters < 1 || sl.Stats.FixpointIters > limit {
			t.Fatalf("trial %d: %d fixpoint iterations, want 1..%d\n%s",
				trial, sl.Stats.FixpointIters, limit, taskir.Format(ip.Prog))
		}
		if sl.Stats.VarsKept > distinctVars(ip.Prog) {
			t.Fatalf("trial %d: kept %d vars, program only has %d",
				trial, sl.Stats.VarsKept, distinctVars(ip.Prog))
		}
	}
}

// Fleet workers share one extracted slice (Controller.Clone shares it)
// and run it at the same time, each on its own device's globals, which
// the device's full job advances between predictions. The slice's
// lowered form must stay read-only: every device run concurrently must
// see exactly what it sees run alone. Run under -race -count=10.
func TestSliceRunConcurrent(t *testing.T) {
	p := &taskir.Program{
		Name:    "phased",
		Params:  []string{"n"},
		Globals: map[string]int64{"phase": 0},
		Body: []taskir.Stmt{
			// The slice keeps this global write: the branch below reads it.
			&taskir.Assign{Dst: "phase", Expr: taskir.Mod(taskir.Add(taskir.Var("phase"), taskir.Var("n")), taskir.Const(5))},
			&taskir.If{ID: 1, Cond: taskir.LT(taskir.Var("phase"), taskir.Const(2)), Then: []taskir.Stmt{
				&taskir.Loop{ID: 2, Count: taskir.Var("n"), IndexVar: "i", Body: []taskir.Stmt{
					&taskir.Compute{Label: "work", Work: 100},
				}},
			}},
		},
	}
	ip := instrument.Instrument(p)
	sl := Extract(ip, nil)
	if a, ok := sl.Prog.Body[0].(*taskir.Assign); !ok || a.Dst != "phase" {
		t.Fatalf("slice lost the global write:\n%s", taskir.Format(sl.Prog))
	}
	full := taskir.Lower(ip.Prog)
	type job struct {
		work   taskir.Work
		counts map[int]int64
	}
	device := func(d int) ([]job, error) {
		globals := cloneMap(p.Globals)
		jobs := make([]job, 20)
		for i := range jobs {
			params := map[string]int64{"n": int64(d*7+i*3) % 11}
			tr := features.NewTrace()
			w, err := sl.Run(globals, params, tr)
			if err != nil {
				return nil, err
			}
			jobs[i] = job{w, tr.Counts}
			env := taskir.NewEnv(globals)
			env.SetParams(params)
			if _, err := full.Run(env, taskir.RunOptions{}); err != nil {
				return nil, err
			}
		}
		return jobs, nil
	}
	const devices = 32
	want := make([][]job, devices)
	for d := range want {
		var err error
		if want[d], err = device(d); err != nil {
			t.Fatal(err)
		}
	}
	got := make([][]job, devices)
	errs := make([]error, devices)
	var wg sync.WaitGroup
	for d := 0; d < devices; d++ {
		wg.Add(1)
		go func(d int) {
			defer wg.Done()
			got[d], errs[d] = device(d)
		}(d)
	}
	wg.Wait()
	for d := range got {
		if errs[d] != nil {
			t.Fatalf("device %d: %v", d, errs[d])
		}
		if !reflect.DeepEqual(got[d], want[d]) {
			t.Errorf("device %d: concurrent runs differ from serial ones", d)
		}
	}
}
