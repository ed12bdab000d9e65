// Command dvfslint runs the static-analysis passes of
// internal/analysis over task programs and reports problems before
// they can reach a governor: undefined-variable reads (which the
// interpreter silently evaluates to 0), unreachable statements,
// feature-coverage gaps (uninstrumented loops/branches/calls, §3.1),
// constant feature expressions, slice-verification failures, and the
// static worst-case slice overhead bound.
//
// Usage:
//
//	dvfslint -workload ldecode            lint one benchmark (or "all")
//	dvfslint -file prog.json              lint a task program file
//	dvfslint -rand 50 -seed 3             lint generated random programs
//	dvfslint -format json -workload all   machine-readable findings
//
// Exit status: 0 when only warnings (or nothing) were found, 1 when
// any error-severity finding or verification failure was reported,
// 2 on usage or I/O errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"

	"repro/internal/analysis"
	"repro/internal/instrument"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/slicer"
	"repro/internal/taskir"
	"repro/internal/workload"
)

func main() {
	wName := flag.String("workload", "", "benchmark to lint, or \"all\"")
	file := flag.String("file", "", "lint a task program from a JSON file")
	nRand := flag.Int("rand", 0, "lint this many generated random programs")
	seed := flag.Int64("seed", 1, "seed for -rand")
	jobs := flag.Int("jobs", 5, "jobs per workload for the run-time undefined-read check")
	format := flag.String("format", "text", `output format: "text" or "json"`)
	logFlags := obs.RegisterLogFlags(flag.CommandLine)
	flag.Parse()

	if _, err := logFlags.Logger(os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "dvfslint:", err)
		flag.Usage()
		os.Exit(2)
	}
	if *format != "text" && *format != "json" {
		fmt.Fprintf(os.Stderr, "dvfslint: unknown format %q (want text or json)\n", *format)
		flag.Usage()
		os.Exit(2)
	}
	if *wName == "" && *file == "" && *nRand == 0 {
		flag.Usage()
		os.Exit(2)
	}
	rep := &reporter{format: *format}
	if err := run(rep, *wName, *file, *nRand, *seed, *jobs); err != nil {
		fmt.Fprintln(os.Stderr, "dvfslint:", err)
		os.Exit(2)
	}
	os.Exit(rep.finish())
}

// reporter collects findings into groups and renders them as text
// (incrementally, matching the historical output) or as one JSON
// document at the end. Info lines — slice summaries and the like —
// are text-mode color, not findings, and are dropped from JSON.
type reporter struct {
	format string
	errs   int
	all    []jsonFinding
}

// jsonFinding is one finding in -format json output.
type jsonFinding struct {
	Group    string `json:"group"`
	Severity string `json:"severity"`
	Code     string `json:"code"`
	Msg      string `json:"msg"`
}

// report records a group of findings under a title.
func (r *reporter) report(title string, findings []analysis.Finding) {
	r.errs += analysis.ErrorCount(findings)
	if len(findings) == 0 {
		return
	}
	if r.format == "text" {
		fmt.Printf("== %s\n", title)
		for _, f := range findings {
			fmt.Printf("  %s\n", f)
		}
		return
	}
	for _, f := range findings {
		r.all = append(r.all, jsonFinding{
			Group: title, Severity: f.Sev.String(), Code: f.Code, Msg: f.Msg,
		})
	}
}

// infof prints an informational line in text mode only.
func (r *reporter) infof(formatStr string, args ...any) {
	if r.format == "text" {
		fmt.Printf(formatStr, args...)
	}
}

// finish renders the summary (or the JSON document) and returns the
// process exit code.
func (r *reporter) finish() int {
	if r.format == "json" {
		out := struct {
			Findings []jsonFinding `json:"findings"`
			Count    int           `json:"count"`
			Errors   int           `json:"errors"`
		}{Findings: r.all, Count: len(r.all), Errors: r.errs}
		if out.Findings == nil {
			out.Findings = []jsonFinding{}
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintln(os.Stderr, "dvfslint:", err)
			return 2
		}
	} else if r.errs > 0 {
		fmt.Printf("dvfslint: %d error(s)\n", r.errs)
	} else {
		fmt.Println("dvfslint: ok")
	}
	if r.errs > 0 {
		return 1
	}
	return 0
}

// run lints the selected programs, reporting through rep.
func run(rep *reporter, wName, file string, nRand int, seed int64, jobs int) error {
	switch {
	case wName == "all":
		for _, w := range workload.All() {
			lintWorkload(rep, w, jobs)
		}
	case wName != "":
		w, err := workload.ByName(wName)
		if err != nil {
			return err
		}
		lintWorkload(rep, w, jobs)
	}
	if file != "" {
		data, err := os.ReadFile(file)
		if err != nil {
			return err
		}
		p, err := taskir.UnmarshalProgram(data)
		if err != nil {
			return err
		}
		// A file that already carries feature statements claims to be
		// instrumented, so coverage gaps are findings; a raw task
		// program legitimately has no counters yet.
		opts := analysis.LintOptions{CheckCoverage: hasFeatures(p)}
		rep.report(p.Name+" (file)", analysis.Lint(p, opts))
	}
	if nRand > 0 {
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < nRand; i++ {
			p := taskir.RandomProgram(rng)
			p.Name = fmt.Sprintf("rand-%d", i)
			findings := analysis.Lint(p, analysis.LintOptions{})
			// Random programs legitimately read temporaries defined on
			// only some paths, so undefined-read findings here are real
			// lint hits; a bad-slice error, however, is an analysis or
			// slicer regression.
			findings = append(findings, verifySliceOf(p)...)
			rep.report(p.Name, findings)
		}
	}
	return nil
}

// lintWorkload lints the raw program, the instrumented copy, the full
// prediction slice, and runs a few jobs with read tracking to confirm
// undefined reads at run time.
func lintWorkload(rep *reporter, w *workload.Workload, jobs int) {
	rep.report(w.Name+" (raw)", analysis.Lint(w.Prog, analysis.LintOptions{}))

	ip := instrument.Instrument(w.Prog)
	rep.report(w.Name+" (instrumented)",
		analysis.Lint(ip.Prog, analysis.LintOptions{CheckCoverage: true}))

	rep.report(w.Name+" (slice)", verifySliceStatic(rep, ip, w))

	var rfindings []analysis.Finding
	for _, v := range runtimeUndefReads(w, jobs) {
		rfindings = append(rfindings, analysis.Finding{
			Sev:  analysis.SevError,
			Code: "undefined-read",
			Msg:  fmt.Sprintf("variable %q read before definition during job execution", v),
		})
	}
	rep.report(w.Name+" (runtime)", rfindings)
}

// verifySliceStatic extracts the full slice, verifies it, and reports
// its static worst-case overhead bound.
func verifySliceStatic(rep *reporter, ip *instrument.Program, w *workload.Workload) []analysis.Finding {
	sl := slicer.Extract(ip, nil)
	rep2, err := analysis.VerifySlice(ip, sl)
	var findings []analysis.Finding
	if err != nil {
		findings = append(findings, analysis.Finding{Sev: analysis.SevError, Code: "bad-slice", Msg: err.Error()})
	}
	plat := platform.ODROIDXU3A7()
	bound := analysis.BoundCost(sl.Prog, nil)
	boundMsg := "unbounded (loop bound not derivable without input ranges)"
	if bound.Finite() {
		boundMsg = fmt.Sprintf("%.0f stmts, %.3g ms at fmax",
			bound.Stmts, 1e3*plat.JobTimeAt(bound.CPUWork(), 0, plat.MaxLevel()))
	}
	rep.infof("== %s (slice) %d/%d stmts, features %v, writes globals %v (isolated), worst case %s\n",
		w.Name, sl.SliceStmts, sl.FullStmts, rep2.ComputedFIDs, rep2.GlobalsWritten, boundMsg)
	return findings
}

// verifySliceOf instruments and slices a program and converts a
// verification failure into findings.
func verifySliceOf(p *taskir.Program) []analysis.Finding {
	ip := instrument.Instrument(p)
	sl := slicer.Extract(ip, nil)
	if _, err := analysis.VerifySlice(ip, sl); err != nil {
		return []analysis.Finding{{Sev: analysis.SevError, Code: "bad-slice", Msg: err.Error()}}
	}
	return nil
}

// runtimeUndefReads executes a few jobs with read tracking enabled and
// returns the variables read before definition.
func runtimeUndefReads(w *workload.Workload, jobs int) []string {
	gen := w.NewGen(1)
	globals := w.FreshGlobals()
	env := taskir.NewEnv(globals)
	env.TrackReads()
	prog := taskir.Lower(w.Prog)
	for i := 0; i < jobs; i++ {
		env.ResetLocals()
		env.SetParams(gen.Next(i))
		if _, err := prog.Run(env, taskir.RunOptions{}); err != nil {
			return env.UndefinedReads()
		}
	}
	return env.UndefinedReads()
}

func hasFeatures(p *taskir.Program) bool {
	found := false
	var walk func(stmts []taskir.Stmt)
	walk = func(stmts []taskir.Stmt) {
		for _, s := range stmts {
			switch st := s.(type) {
			case *taskir.FeatAdd, *taskir.FeatCall:
				found = true
			case *taskir.If:
				walk(st.Then)
				walk(st.Else)
			case *taskir.While:
				walk(st.Body)
			case *taskir.Loop:
				walk(st.Body)
			case *taskir.Call:
				for _, b := range st.Funcs {
					walk(b)
				}
			}
		}
	}
	walk(p.Body)
	return found
}
