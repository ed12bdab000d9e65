package features

import (
	"encoding/json"
	"reflect"
	"testing"
)

func TestWireTraceRoundTrip(t *testing.T) {
	tr := NewTrace()
	tr.AddFeature(3, 17)
	tr.AddFeature(7, 1)
	tr.AddFeature(7, 4)
	tr.RecordCall(5, 9)
	tr.RecordCall(5, 2)
	tr.RecordCall(11, 42)
	tr.AddFeature(123456, 2)

	data, err := json.Marshal(tr.Wire())
	if err != nil {
		t.Fatal(err)
	}
	var w WireTrace
	if err := json.Unmarshal(data, &w); err != nil {
		t.Fatal(err)
	}
	got, err := w.Trace()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Counts, tr.Counts) {
		t.Errorf("counts: got %v want %v", got.Counts, tr.Counts)
	}
	if !reflect.DeepEqual(got.CallAddrs, tr.CallAddrs) {
		t.Errorf("calls: got %v want %v", got.CallAddrs, tr.CallAddrs)
	}
}

func TestWireTraceEmpty(t *testing.T) {
	data, err := json.Marshal(NewTrace().Wire())
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "{}" {
		t.Errorf("empty trace encodes as %s, want {}", data)
	}
	var w WireTrace
	if err := json.Unmarshal([]byte("{}"), &w); err != nil {
		t.Fatal(err)
	}
	tr, err := w.Trace()
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Counts) != 0 || len(tr.CallAddrs) != 0 {
		t.Errorf("empty wire decodes non-empty: %v %v", tr.Counts, tr.CallAddrs)
	}
}

// A FID key must be spelled as strconv.Itoa spells the number: Atoi
// alone read "7", "07" and "+7" as FID 7, and map iteration order
// picked which value won.
func TestWireTraceRejectsBadKeys(t *testing.T) {
	for _, raw := range []string{
		`{"counts":{"abc":1}}`,
		`{"calls":{"1.5":[2]}}`,
		`{"counts":{"7":1,"07":2,"+7":3}}`,
		`{"counts":{"-0":1}}`,
		`{"calls":{"05":[1]}}`,
		`{"calls":{" 5":[1]}}`,
	} {
		var w WireTrace
		if err := json.Unmarshal([]byte(raw), &w); err != nil {
			t.Fatal(err)
		}
		if _, err := w.Trace(); err == nil {
			t.Errorf("bad key in %s accepted", raw)
		}
	}
}

// Vectorizing a decoded wire trace must match vectorizing the original
// — the serving daemon depends on this equivalence.
func TestWireTraceVectorizeEquivalence(t *testing.T) {
	tr := NewTrace()
	tr.AddFeature(0, 5)
	tr.AddFeature(2, 9)
	tr.RecordCall(1, 7)

	cols := []Column{
		{Kind: ColCounter, FID: 0, Name: "loop#0"},
		{Kind: ColCallAddr, FID: 1, Addr: 7, Name: "call#1@addr7"},
		{Kind: ColCounter, FID: 2, Name: "branch#2"},
	}
	s := NewSchemaFromColumns(cols)
	got, err := tr.Wire().Trace()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s.Vectorize(got), s.Vectorize(tr)) {
		t.Errorf("vectorized wire trace differs: %v vs %v", s.Vectorize(got), s.Vectorize(tr))
	}
}
