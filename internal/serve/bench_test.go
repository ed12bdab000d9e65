package serve

import (
	"bytes"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/alert"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/trace"
)

// BenchmarkFleetIngest times one POST /v1/fleet/ingest through the
// server's handler: a binary chunk of 20 devices × 10 jobs, uploaded
// into a tracker that already holds 3000 devices.
func BenchmarkFleetIngest(b *testing.B) {
	reg, err := NewRegistry(RegistryOptions{Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer reg.Close()
	ft := obs.NewFleetTracker(obs.FleetConfig{})
	for d := 0; d < 3000; d++ {
		for j := 0; j < 10; j++ {
			e := fleetTestEvent(fmt.Sprintf("dev-%04d", d), "sha", j, (d+j)%13 == 0, 0.1)
			ft.Emit(&e)
		}
	}
	h := NewServer(reg, ServerOptions{Fleet: ft})

	var buf bytes.Buffer
	bw := trace.NewBinaryWriter(&buf)
	for d := 0; d < 20; d++ {
		for j := 0; j < 10; j++ {
			e := fleetTestEvent(fmt.Sprintf("dev-%04d", d), "sha", j, j%4 == 0, 0.2)
			bw.Emit(&e)
		}
	}
	if err := bw.Close(); err != nil {
		b.Fatal(err)
	}
	chunk := buf.Bytes()

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/fleet/ingest", bytes.NewReader(chunk)))
		if rec.Code != http.StatusOK {
			b.Fatalf("ingest: HTTP %d: %s", rec.Code, rec.Body)
		}
	}
	b.ReportMetric(float64(b.Elapsed())/1e6/float64(b.N), "ms/upload")
}

// predictBenchModels are the models perfbench's predict workload
// serves, with the per-job budget it sends.
var predictBenchModels = []string{"ldecode", "rijndael", "sha"}

const predictBenchBudgetSec = 0.03

// discardWriter is a reusable http.ResponseWriter that drops the body.
type discardWriter struct {
	h    http.Header
	code int
}

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *discardWriter) WriteHeader(code int)        { w.code = code }

// replayBody serves one pre-encoded body per request without
// allocating a new reader.
type replayBody struct{ bytes.Reader }

func (*replayBody) Close() error { return nil }

// BenchmarkPredictHandler times one POST /v1/predict through
// Server.ServeHTTP as dvfsd serves it: the decision tracer with its
// default sinks (SSE broadcaster, energy meter), a text request log at
// Info, and metrics. Bodies are json.Marshal'd PredictRequests of
// seeded ldecode/rijndael/sha jobs, round-robin; the response goes to
// a discarding writer. The HTTP connection itself is not timed.
func BenchmarkPredictHandler(b *testing.B) {
	reg := trainedRegistry(b)
	metrics := NewMetrics()
	stream := obs.NewBroadcaster(obs.BroadcasterOptions{})
	energy := alert.NewEnergyMeter(alert.EnergyConfig{Platform: platform.ODROIDXU3A7()})
	tracer := obs.NewTracer(obs.TracerOptions{Sinks: []obs.Sink{stream, energy}})
	defer tracer.Close()
	h := NewServer(reg, ServerOptions{
		Log:     slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelInfo})),
		Metrics: metrics,
		Tracer:  tracer,
		Stream:  stream,
		Energy:  energy,
	})

	type prepared struct {
		body []byte
		rb   *replayBody
		req  *http.Request
	}
	var pool []prepared
	for _, body := range poolBodies(b, 64) {
		req := httptest.NewRequest(http.MethodPost, "/v1/predict", nil)
		req.Header.Set("Content-Type", "application/json")
		req.ContentLength = int64(len(body))
		pool = append(pool, prepared{body: body, rb: &replayBody{}, req: req})
	}
	w := &discardWriter{h: http.Header{}}
	serveOne := func(p *prepared) {
		clear(w.h)
		w.code = 0
		p.rb.Reset(p.body)
		p.req.Body = p.rb
		h.ServeHTTP(w, p.req)
		if w.code != http.StatusOK {
			b.Fatalf("predict: HTTP %d", w.code)
		}
	}
	for i := range pool {
		serveOne(&pool[i])
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serveOne(&pool[i%len(pool)])
	}
}
