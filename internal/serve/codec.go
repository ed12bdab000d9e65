package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"
	"unicode/utf8"

	"repro/internal/features"
)

// The /v1/predict codec. The route reads and writes one small JSON
// shape, and encoding/json's reflection cost the daemon more CPU than
// the decision it carries. parsePredict scans by hand exactly the bytes
// json.Marshal(PredictRequest) emits and hands every other input to
// json.Unmarshal, so accepts, rejects, decoded values and error text
// stay encoding/json's. appendPredictResponse writes the bytes
// json.NewEncoder(w).Encode(resp) would. FuzzPredictRequest and
// TestPredictEncoderMatchesEncodingJSON hold both to encoding/json.

// bufPool recycles the predict route's request and response buffers.
// Buffers grown past maxPooledBuf by an unusually large body are
// dropped rather than kept alive.
var bufPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 2048)
	return &b
}}

const maxPooledBuf = 64 << 10

func putBuf(bp *[]byte) {
	if cap(*bp) <= maxPooledBuf {
		bufPool.Put(bp)
	}
}

// decodePredict reads a /v1/predict body into a pooled buffer and
// parses it, with decodeBody's errors.
func decodePredict(r *http.Request, req *PredictRequest) error {
	bp := bufPool.Get().(*[]byte)
	defer putBuf(bp)
	data, err := appendBody((*bp)[:0], r.Body)
	*bp = data
	if err != nil {
		return fmt.Errorf("reading body: %w", err)
	}
	if len(data) == 0 {
		return errEmptyBody
	}
	if err := parsePredict(data, req); err != nil {
		return fmt.Errorf("parsing body: %w", err)
	}
	return nil
}

// appendBody appends everything r yields to buf, as io.ReadAll does.
func appendBody(buf []byte, r io.Reader) ([]byte, error) {
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

// parsePredict decodes data into *req exactly as json.Unmarshal does,
// returning json.Unmarshal's error.
func parsePredict(data []byte, req *PredictRequest) error {
	if scanPredictRequest(data, req) {
		return nil
	}
	*req = PredictRequest{}
	return json.Unmarshal(data, req)
}

// scanPredictRequest decodes data into *req when it has the shape
// json.Marshal(PredictRequest) emits: no whitespace; fields in
// declaration order under their exact names, each at most once; map
// keys in strictly increasing byte order; strings of printable ASCII
// with no escapes; integers of at most 18 digits with no fraction or
// exponent; no null; nothing after the closing brace. It reports false
// on anything else, leaving *req partly written.
func scanPredictRequest(data []byte, req *PredictRequest) bool {
	s := scanner{b: data}
	const (
		fModel = iota
		fFeatures
		fParams
		fBudget
		fPredictor
		fLevel
	)
	last := -1
	ok := s.object(func(key []byte) bool {
		var f int
		switch string(key) {
		case "model":
			f = fModel
		case "features":
			f = fFeatures
		case "params":
			f = fParams
		case "budget_sec":
			f = fBudget
		case "predictor_sec":
			f = fPredictor
		case "level":
			f = fLevel
		default:
			return false
		}
		if f <= last {
			return false
		}
		last = f
		switch f {
		case fModel:
			v, ok := s.str()
			req.Model = string(v)
			return ok
		case fFeatures:
			return s.wireTrace(&req.Features)
		case fParams:
			req.Params = map[string]int64{}
			return s.intMap(req.Params)
		case fBudget:
			return s.float(&req.BudgetSec)
		case fPredictor:
			return s.float(&req.PredictorSec)
		default:
			v, ok := s.int()
			if ok && int64(int(v)) == v {
				level := int(v)
				req.Level = &level
				return true
			}
			return false
		}
	})
	return ok && s.i == len(s.b)
}

// scanner walks one JSON text in the fixed shape scanPredictRequest
// accepts. Every method reports false on the first byte outside it.
type scanner struct {
	b []byte
	i int
}

func (s *scanner) lit(c byte) bool {
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// object scans {"key":value,...}, calling member with each key once the
// colon is consumed; member scans the value.
func (s *scanner) object(member func(key []byte) bool) bool {
	if !s.lit('{') {
		return false
	}
	if s.lit('}') {
		return true
	}
	for {
		key, ok := s.str()
		if !ok || !s.lit(':') || !member(key) {
			return false
		}
		if s.lit('}') {
			return true
		}
		if !s.lit(',') {
			return false
		}
	}
}

// mapObject is object for a JSON object decoded into a Go map: keys
// must come in strictly increasing order, as json.Marshal sorts them,
// which also rules out duplicates.
func (s *scanner) mapObject(member func(key []byte) bool) bool {
	var prev []byte
	first := true
	return s.object(func(key []byte) bool {
		if !first && bytes.Compare(prev, key) >= 0 {
			return false
		}
		prev, first = key, false
		return member(key)
	})
}

// str scans a string of printable ASCII without escapes and returns its
// contents, aliasing the input.
func (s *scanner) str() ([]byte, bool) {
	if !s.lit('"') {
		return nil, false
	}
	start := s.i
	for s.i < len(s.b) {
		c := s.b[s.i]
		if c == '"' {
			s.i++
			return s.b[start : s.i-1], true
		}
		if c < 0x20 || c == '\\' || c >= utf8.RuneSelf {
			return nil, false
		}
		s.i++
	}
	return nil, false
}

// int scans an integer literal of at most 18 digits, so it fits an
// int64. A fraction or exponent, which encoding/json refuses for an
// integer field, fails the scan.
func (s *scanner) int() (int64, bool) {
	neg := s.lit('-')
	start := s.i
	var v int64
	for s.i < len(s.b) && s.b[s.i] >= '0' && s.b[s.i] <= '9' {
		v = v*10 + int64(s.b[s.i]-'0')
		s.i++
	}
	n := s.i - start
	if n == 0 || n > 18 || (n > 1 && s.b[start] == '0') {
		return 0, false
	}
	if s.i < len(s.b) && (s.b[s.i] == '.' || s.b[s.i] == 'e' || s.b[s.i] == 'E') {
		return 0, false
	}
	if neg {
		v = -v
	}
	return v, true
}

// float scans a JSON number and converts it as encoding/json does;
// a value out of float64's range fails the scan.
func (s *scanner) float(dst *float64) bool {
	start := s.i
	s.lit('-')
	if !s.digits(true) {
		return false
	}
	if s.lit('.') && !s.digits(false) {
		return false
	}
	if s.lit('e') || s.lit('E') {
		if !s.lit('+') {
			s.lit('-')
		}
		if !s.digits(false) {
			return false
		}
	}
	v, err := strconv.ParseFloat(string(s.b[start:s.i]), 64)
	*dst = v
	return err == nil
}

// digits scans one or more decimal digits; intPart also refuses a
// leading zero followed by more digits, as JSON does.
func (s *scanner) digits(intPart bool) bool {
	start := s.i
	for s.i < len(s.b) && s.b[s.i] >= '0' && s.b[s.i] <= '9' {
		s.i++
	}
	n := s.i - start
	return n > 0 && !(intPart && n > 1 && s.b[start] == '0')
}

func (s *scanner) intMap(m map[string]int64) bool {
	return s.mapObject(func(key []byte) bool {
		v, ok := s.int()
		m[string(key)] = v
		return ok
	})
}

func (s *scanner) wireTrace(w *features.WireTrace) bool {
	last := -1
	return s.object(func(key []byte) bool {
		f := -1
		switch string(key) {
		case "counts":
			f = 0
		case "calls":
			f = 1
		}
		if f <= last {
			return false
		}
		last = f
		if f == 0 {
			w.Counts = map[string]int64{}
			return s.intMap(w.Counts)
		}
		w.Calls = map[string][]int64{}
		return s.mapObject(func(key []byte) bool {
			addrs, ok := s.intArray()
			w.Calls[string(key)] = addrs
			return ok
		})
	})
}

// intArray scans [int,...]; [] yields an empty, non-nil slice, as
// encoding/json decodes it.
func (s *scanner) intArray() ([]int64, bool) {
	if !s.lit('[') {
		return nil, false
	}
	out := []int64{}
	if s.lit(']') {
		return out, true
	}
	for {
		v, ok := s.int()
		if !ok {
			return nil, false
		}
		out = append(out, v)
		if s.lit(']') {
			return out, true
		}
		if !s.lit(',') {
			return nil, false
		}
	}
}

// writePredict sends a /v1/predict answer: the bytes writeJSON would,
// appended into a pooled buffer and sent with one Write. Answers the
// appender cannot write byte for byte go through writeJSON itself.
func writePredict(w http.ResponseWriter, resp *PredictResponse) {
	bp := bufPool.Get().(*[]byte)
	defer putBuf(bp)
	b, ok := appendPredictResponse((*bp)[:0], resp)
	*bp = b
	if !ok {
		writeJSON(w, http.StatusOK, resp)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(b)
}

// appendPredictResponse appends json.NewEncoder's encoding of r,
// trailing newline included. It reports false when r holds what it
// does not encode: a model name with a byte json.Encoder escapes, or a
// NaN or ±Inf, which encoding/json refuses.
func appendPredictResponse(b []byte, r *PredictResponse) ([]byte, bool) {
	for i := 0; i < len(r.Model); i++ {
		if c := r.Model[i]; c < 0x20 || c >= utf8.RuneSelf || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			return b, false
		}
	}
	b = append(b, `{"model":"`...)
	b = append(b, r.Model...)
	b = append(b, `","level":`...)
	b = strconv.AppendInt(b, int64(r.Level), 10)
	b = append(b, `,"freq_khz":`...)
	b = strconv.AppendInt(b, r.FreqKHz, 10)
	for _, f := range [...]struct {
		name string
		v    float64
	}{
		{`,"t_fmin_sec":`, r.TFminSec},
		{`,"t_fmax_sec":`, r.TFmaxSec},
		{`,"eff_budget_sec":`, r.EffBudgetSec},
		{`,"predicted_exec_sec":`, r.PredictedExecSec},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return b, false
		}
		b = append(b, f.name...)
		b = appendJSONFloat(b, f.v)
	}
	return append(b, "}\n"...), true
}

// appendJSONFloat appends encoding/json's form of a finite float64:
// 'f' format, or 'e' with a one-digit negative exponent written e-7,
// not e-07, when |v| < 1e-6 or |v| ≥ 1e21.
func appendJSONFloat(b []byte, v float64) []byte {
	format := byte('f')
	if abs := math.Abs(v); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, v, format, -1, 64)
	if format == 'e' {
		n := len(b)
		if n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}
