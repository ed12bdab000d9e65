package serve

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/obs"
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
