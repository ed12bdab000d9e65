package core

import (
	"testing"

	"repro/internal/features"
	"repro/internal/obs"
	"repro/internal/workload"
)

// BenchmarkPredictTraceSpans times the decision dvfsd serves for one
// ldecode job: vectorize, both model evaluations, level selection and
// the feature hash, with the span ledger dvfsd records for every
// prediction. Traces are the slice's over a seeded job stream.
func BenchmarkPredictTraceSpans(b *testing.B) {
	w, err := workload.ByName("ldecode")
	if err != nil {
		b.Fatal(err)
	}
	c, err := Build(w, Config{ProfileSeed: 1})
	if err != nil {
		b.Fatal(err)
	}
	gen := w.NewGen(2)
	globals := w.FreshGlobals()
	type job struct {
		tr     *features.Trace
		params map[string]int64
	}
	jobs := make([]job, 64)
	for i := range jobs {
		params := gen.Next(i)
		tr := features.NewTrace()
		if _, err := c.Slice.Run(globals, params, tr); err != nil {
			b.Fatal(err)
		}
		jobs[i] = job{tr, params}
	}
	cur := c.Plat.MaxLevel()

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := &jobs[i%len(jobs)]
		st := obs.NewSpanTimer()
		st.Start(obs.PhaseServe)
		c.PredictTraceSpans(j.tr, j.params, w.DefaultBudgetSec, 0, cur, st)
		st.Finish()
	}
}
