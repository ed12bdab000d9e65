package obs

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"
)

// TestSpanCaptureZeroAlloc: the //dvfs:hotpath span-capture methods
// (Start/Next/End) must not allocate — they run inside the decision
// whose cost §3.4 charges against every job's budget. The ledger lives
// in the timer's fixed arrays; a stack-local timer must stay on the
// stack.
func TestSpanCaptureZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("AllocsPerRun is not meaningful under the race detector")
	}
	allocs := testing.AllocsPerRun(200, func() {
		var st SpanTimer
		st.Start(PhaseServe)
		st.Start(PhasePredict)
		st.Next(PhaseSelect)
		st.End()
		st.End()
	})
	if allocs != 0 {
		t.Fatalf("span capture allocated %.1f times per run", allocs)
	}
}

// TestFeatureHashZeroAlloc: the inlined FNV-1a must not allocate the
// way the hash/fnv-based implementation did (interface boxing of the
// hash state plus the Write call).
func TestFeatureHashZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("AllocsPerRun is not meaningful under the race detector")
	}
	x := []float64{1, 2.5, -3, 0, math.Pi}
	var sink uint64
	allocs := testing.AllocsPerRun(200, func() {
		sink += FeatureHash(x)
	})
	if allocs != 0 {
		t.Fatalf("FeatureHash allocated %.1f times per run", allocs)
	}
	_ = sink
}

// TestFeatureHashMatchesFNV pins the inlined implementation to the
// standard library's: same bytes in, same sum out, so hashes recorded
// by earlier builds still correlate.
func TestFeatureHashMatchesFNV(t *testing.T) {
	vectors := [][]float64{
		nil,
		{0},
		{1, 2, 3},
		{-1.5, math.Pi, 1e300, -0.0, math.MaxFloat64},
		{math.SmallestNonzeroFloat64, 42},
	}
	for _, x := range vectors {
		h := fnv.New64a()
		var buf [8]byte
		for _, v := range x {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
		if got, want := FeatureHash(x), h.Sum64(); got != want {
			t.Errorf("FeatureHash(%v) = %#x, fnv says %#x", x, got, want)
		}
	}
}
