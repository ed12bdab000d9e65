package workload

import (
	"testing"

	"repro/internal/features"
	"repro/internal/instrument"
	"repro/internal/slicer"
	"repro/internal/taskir"
)

// benchJobs is the number of distinct job inputs each BenchmarkRun case
// cycles through.
const benchJobs = 64

// BenchmarkRun measures the task-program interpreter on every workload
// in the two forms the reproduction runs most: the instrumented
// program with a feature recorder (core.Build's profiling runs) and
// the frozen prediction slice keeping every feature (the predictor run
// before each job). ns/stmt is the run time divided by the statements
// executed; allocs/op counts the per-job environment (a run's frame
// comes from a pool).
func BenchmarkRun(b *testing.B) {
	for _, w := range All() {
		ip := instrument.Instrument(w.Prog)
		sl := slicer.Extract(ip, nil)
		gen := w.NewGen(1)
		params := make([]map[string]int64, benchJobs)
		for i := range params {
			params[i] = gen.Next(i)
		}
		b.Run(w.Name+"/instrumented", func(b *testing.B) {
			prog := taskir.Lower(ip.Prog)
			globals := w.FreshGlobals()
			tr := features.NewTrace()
			var stmts int64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tr.Reset()
				env := taskir.NewEnv(globals)
				env.SetParams(params[i%benchJobs])
				wk, err := prog.Run(env, taskir.RunOptions{Recorder: tr})
				if err != nil {
					b.Fatal(err)
				}
				stmts += wk.Stmts
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(stmts), "ns/stmt")
		})
		b.Run(w.Name+"/slice", func(b *testing.B) {
			globals := w.FreshGlobals()
			tr := features.NewTrace()
			var stmts int64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tr.Reset()
				wk, err := sl.Run(globals, params[i%benchJobs], tr)
				if err != nil {
					b.Fatal(err)
				}
				stmts += wk.Stmts
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(stmts), "ns/stmt")
		})
	}
}
