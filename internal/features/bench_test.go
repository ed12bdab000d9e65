package features_test

import (
	"testing"

	"repro/internal/features"
	"repro/internal/instrument"
	"repro/internal/taskir"
	"repro/internal/workload"
)

// BenchmarkVectorizeInto times turning one recorded ldecode trace into
// a feature vector under the full instrumented schema, into a reused
// buffer as the decision path does.
func BenchmarkVectorizeInto(b *testing.B) {
	w, err := workload.ByName("ldecode")
	if err != nil {
		b.Fatal(err)
	}
	ip := instrument.Instrument(w.Prog)
	prog := taskir.Lower(ip.Prog)
	gen := w.NewGen(1)
	globals := w.FreshGlobals()
	traces := make([]*features.Trace, 64)
	for i := range traces {
		tr := features.NewTrace()
		env := taskir.NewEnv(globals)
		env.SetParams(gen.Next(i))
		if _, err := prog.Run(env, taskir.RunOptions{Recorder: tr}); err != nil {
			b.Fatal(err)
		}
		traces[i] = tr
	}
	s := features.BuildSchema(ip, traces)
	buf := make([]float64, 0, s.Dim())

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = s.VectorizeInto(buf[:0], traces[i%len(traces)])
	}
}
