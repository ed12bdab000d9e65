package serve

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"repro/internal/platform"
)

// poolBodies are json.Marshal'd PredictRequests of seeded jobs of the
// models perfbench serves: the shape dvfsd's clients send.
func poolBodies(tb testing.TB, perModel int) [][]byte {
	tb.Helper()
	var out [][]byte
	for k, m := range predictBenchModels {
		jobs, err := GenerateJobs(m, perModel, int64(k+1))
		if err != nil {
			tb.Fatal(err)
		}
		for _, job := range jobs {
			job.BudgetSec = predictBenchBudgetSec
			body, err := json.Marshal(PredictRequest{Model: m, PredictJob: job})
			if err != nil {
				tb.Fatal(err)
			}
			out = append(out, body)
		}
	}
	return out
}

// trainedRegistry trains perfbench's predict models as dvfsd does: the
// a7 platform, switch-table seed 1 and the default training config.
func trainedRegistry(tb testing.TB) *Registry {
	tb.Helper()
	reg, err := NewRegistry(RegistryOptions{Plat: platform.ODROIDXU3A7(), Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(reg.Close)
	for _, m := range predictBenchModels {
		f, _, err := reg.Train(m, TrainConfig{})
		if err != nil {
			tb.Fatal(err)
		}
		if st, ok := f.Wait(tb.Context()); !ok || st.State != StateReady {
			tb.Fatalf("training %s: %s %s", m, st.State, st.Error)
		}
	}
	return reg
}

// The hand scanner must take the bodies clients actually send; were it
// to fall back on them, every request would pay for both decoders.
func TestPredictScanTakesMarshalShape(t *testing.T) {
	lvl := 3
	full, err := json.Marshal(PredictRequest{Model: "sha", PredictJob: PredictJob{
		Params:       map[string]int64{"ev": -2, "n": 40},
		BudgetSec:    0.05,
		PredictorSec: 1e-7,
		Level:        &lvl,
	}})
	if err != nil {
		t.Fatal(err)
	}
	for _, body := range append(poolBodies(t, 20), full) {
		var got, want PredictRequest
		if !scanPredictRequest(body, &got) {
			t.Fatalf("scanner fell back on %s", body)
		}
		if err := json.Unmarshal(body, &want); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("scanner decoded %s as %+v, encoding/json as %+v", body, got, want)
		}
	}
}

// FuzzPredictRequest holds the /v1/predict decoder to encoding/json:
// for any input both accept or both reject it, with the same decoded
// value (nil and empty maps told apart) and the same error text.
func FuzzPredictRequest(f *testing.F) {
	for _, body := range poolBodies(f, 2) {
		f.Add(body)
	}
	for _, s := range []string{
		`{"model":"sha","features":{"counts":{"1":2},"calls":{"3":[4,5]}},"params":{"n":3},"budget_sec":0.05,"predictor_sec":1e-7,"level":2}`,
		``, `{}`, `null`, `[]`, `"sha"`,
		// Escapes and case-folded or unknown keys.
		`{"model":"l\u0064ecode","features":{}}`,
		`{"model":"sha\/x"}`,
		`{"features":{"counts":{"\u0031":1}}}`,
		`{"MODEL":"sha","Features":{"Counts":{"1":2}}}`,
		`{"model":"sha","unknown":[1,{"a":null}]}`,
		// null anywhere.
		`{"model":null}`, `{"features":null}`, `{"features":{"counts":null}}`,
		`{"features":{"calls":{"1":null}}}`, `{"params":null}`, `{"level":null}`,
		// Duplicate and unsorted keys.
		`{"model":"a","model":"b"}`,
		`{"features":{"counts":{"1":1}},"features":{"counts":{"2":2}}}`,
		`{"features":{"counts":{"7":1,"7":2}}}`,
		`{"features":{"counts":{"7":1,"07":2,"+7":3}}}`,
		`{"features":{"counts":{"2":1,"10":2}}}`,
		`{"level":1,"model":"sha"}`,
		// Numbers out of range or of the wrong kind.
		`{"budget_sec":1e400}`, `{"budget_sec":-1e400}`, `{"budget_sec":1e-400}`,
		`{"level":1.0}`, `{"level":1e2}`, `{"features":{"counts":{"1":1.5}}}`,
		`{"level":9223372036854775807}`, `{"level":9223372036854775808}`,
		`{"features":{"counts":{"1":-9223372036854775808}}}`,
		`{"params":{"n":123456789012345678}}`, `{"params":{"n":1234567890123456789}}`,
		`{"budget_sec":-0}`, `{"level":-0}`, `{"level":01}`, `{"level":-}`,
		`{"budget_sec":.5}`, `{"budget_sec":1.}`, `{"budget_sec":1e}`, `{"budget_sec":1E+2}`,
		`{"budget_sec":"0.03"}`, `{"level":true}`,
		// Trailing bytes and whitespace.
		`{"model":"sha"}x`, `{"model":"sha"} `, `{"model":"sha"}{}`, ` {"model":"sha"}`,
		`{"model": "sha"}`, "{\"model\":\"sha\"}\n",
		// Empty containers and non-ASCII strings.
		`{"features":{"calls":{"3":[]}}}`, `{"features":{"calls":{"3":[1,2,]}}}`,
		`{"params":{}}`, `{"features":{"counts":{}}}`,
		"{\"model\":\"\xff\"}", `{"model":"é"}`, "{\"model\":\"a\tb\"}",
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var want PredictRequest
		wantErr := json.Unmarshal(data, &want)
		var got PredictRequest
		gotErr := parsePredict(data, &got)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("%q: parsePredict error %v, encoding/json error %v", data, gotErr, wantErr)
		}
		if gotErr != nil && gotErr.Error() != wantErr.Error() {
			t.Fatalf("%q: parsePredict error %q, encoding/json error %q", data, gotErr, wantErr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%q: parsePredict decoded %#v, encoding/json %#v", data, got, want)
		}
	})
}

// encodeJSON is what writeJSON sends for v.
func encodeJSON(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// The predict route must answer writeJSON's exact bytes: the float
// rule at its edges, HTML-safe string escaping, and the trailing
// newline, whether the appender writes the answer or hands it back.
func TestPredictEncoderMatchesEncodingJSON(t *testing.T) {
	floats := []float64{
		0, math.Copysign(0, -1), 1e-7, -1e-7, 1e-6, 9.99999e-7, 1e21, -1e21, 1e20,
		5e-324, math.MaxFloat64, -math.MaxFloat64, 0.03, 1.0 / 3, 123456789.125, 1e-300,
	}
	var cases []PredictResponse
	for i, f := range floats {
		cases = append(cases, PredictResponse{
			Model: "ldecode", Level: i - 3, FreqKHz: int64(i) * 100000,
			TFminSec: f, TFmaxSec: -f, EffBudgetSec: f / 3, PredictedExecSec: f / 7,
		})
	}
	for _, resp := range cases {
		if _, ok := appendPredictResponse(nil, &resp); !ok {
			t.Fatalf("%+v: the appender refused a plain finite answer", resp)
		}
	}
	// Names json.Encoder escapes, and NaN and ±Inf, which it refuses,
	// take writeJSON's path.
	for _, m := range []string{
		"", `q"uote`, `back\slash`, "<b", "b>", "&amp", "del\x7f", "tab\t", "nl\n", "\x01\x1f",
		"\u00e9", "\u2028\u2029", "\xff\xfe", "a\xc3", "\U0001F600",
	} {
		cases = append(cases, PredictResponse{Model: m, TFminSec: 0.5})
	}
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		cases = append(cases, PredictResponse{Model: "sha", PredictedExecSec: f})
	}
	for _, resp := range cases {
		got, want := httptest.NewRecorder(), httptest.NewRecorder()
		writePredict(got, &resp)
		writeJSON(want, http.StatusOK, resp)
		if got.Code != want.Code || got.Body.String() != want.Body.String() ||
			!reflect.DeepEqual(got.Header(), want.Header()) {
			t.Errorf("%+v:\n got %d %v %q\nwant %d %v %q", resp,
				got.Code, got.Header(), got.Body, want.Code, want.Header(), want.Body)
		}
	}

	if testing.Short() {
		t.Skip("the pool answers need trained models")
	}
	srv := NewServer(trainedRegistry(t), ServerOptions{})
	for _, body := range poolBodies(t, 64) {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("predict: HTTP %d: %s", rec.Code, rec.Body)
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Fatalf("Content-Type %q", ct)
		}
		var resp PredictResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		if want := encodeJSON(t, resp); !bytes.Equal(rec.Body.Bytes(), want) {
			t.Fatalf("answer bytes\n got %s\nwant %s", rec.Body, want)
		}
	}
}

// Successful requests log at Debug only; sheds and errors stay at Info.
func TestRequestLogLevels(t *testing.T) {
	reg, err := NewRegistry(RegistryOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	serveAt := func(level slog.Level, do func(*Server)) []string {
		var buf bytes.Buffer
		srv := NewServer(reg, ServerOptions{
			Log:         slog.New(slog.NewTextHandler(&buf, &slog.HandlerOptions{Level: level})),
			MaxInflight: 1,
		})
		do(srv)
		return strings.Split(strings.TrimSpace(buf.String()), "\n")
	}
	ok := func(srv *Server) {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/models", nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("list models: HTTP %d", rec.Code)
		}
	}
	bad := func(srv *Server) {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/predict", strings.NewReader("hello")))
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("bad predict: HTTP %d", rec.Code)
		}
	}
	shed := func(srv *Server) {
		srv.sem <- struct{}{}
		defer func() { <-srv.sem }()
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/predict", strings.NewReader("{}")))
		if rec.Code != http.StatusTooManyRequests {
			t.Fatalf("shed: HTTP %d", rec.Code)
		}
	}

	if lines := serveAt(slog.LevelInfo, ok); lines[0] != "" {
		t.Errorf("a 200 logged at Info: %q", lines)
	}
	lines := serveAt(slog.LevelDebug, ok)
	if len(lines) != 1 || !strings.Contains(lines[0], "level=DEBUG msg=request route=models_list") ||
		!strings.Contains(lines[0], "status=200") {
		t.Errorf("a 200 at Debug logged %q, want one DEBUG request record", lines)
	}
	for name, do := range map[string]func(*Server){"400": bad, "429": shed} {
		lines := serveAt(slog.LevelInfo, do)
		if len(lines) != 1 || !strings.Contains(lines[0], "level=INFO msg=request route=predict") ||
			!strings.Contains(lines[0], "status="+name) {
			t.Errorf("a %s at Info logged %q, want one INFO request record", name, lines)
		}
	}
}

// A body over the route's limit answers 413, in the usual error shape.
func TestPredictBodyTooLarge(t *testing.T) {
	reg, err := NewRegistry(RegistryOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	srv := NewServer(reg, ServerOptions{})
	body := append([]byte(`{"model":"`), bytes.Repeat([]byte("x"), maxBodyBytes)...)
	const tooLarge = "http: request body too large"
	for _, c := range []struct{ path, err string }{
		{"/v1/predict", "reading body: " + tooLarge},
		{"/v1/predict/batch", "reading body: " + tooLarge},
		{"/v1/models/sha", "reading body: " + tooLarge},
		{"/v1/models/sha?mode=upload", "core: decoding model: " + tooLarge},
	} {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, c.path, bytes.NewReader(body[:maxBodyBytes+1])))
		if rec.Code != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s: %d-byte body: HTTP %d, want 413", c.path, maxBodyBytes+1, rec.Code)
		}
		var e ErrorResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error != c.err {
			t.Fatalf("%s: error body %q (%v)", c.path, rec.Body, err)
		}
	}
	// At the limit the body is read, and rejected as JSON (or, uploaded,
	// as a model).
	for _, path := range []string{"/v1/predict", "/v1/models/sha?mode=upload"} {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body[:maxBodyBytes])))
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("%s: %d-byte body: HTTP %d, want 400", path, maxBodyBytes, rec.Code)
		}
	}
}
