package platform

import (
	"math/rand"
	"testing"
)

// refMeasureSwitchTable is the per-draw loop MeasureSwitchTable ran
// before it selected among raw deviates: every draw is jittered into a
// latency, one exp per draw, and the order statistic is selected among
// the latencies. It is the reference the deviate-selecting table must
// equal bit for bit.
func refMeasureSwitchTable(p *Platform, samples int, q float64, seed int64) *SwitchTable {
	rng := rand.New(rand.NewSource(seed))
	n := p.NumLevels()
	tbl := &SwitchTable{Seconds: make([][]float64, n)}
	buf := make([]float64, samples)
	idx := int(q * float64(samples-1))
	for from := 0; from < n; from++ {
		tbl.Seconds[from] = make([]float64, n)
		for to := 0; to < n; to++ {
			if from == to {
				continue
			}
			mean := p.switchMean(p.Levels[from], p.Levels[to])
			for s := range buf {
				buf[s] = p.jittered(mean, rng.NormFloat64())
			}
			tbl.Seconds[from][to] = selectKth(buf, idx)
		}
	}
	return tbl
}

// TestSwitchTableMatchesPerDrawReference: on every platform model, the
// Fig 11 table (500 draws, q 0.95) that jitters only the selected
// deviate equals the per-draw reference in every entry, bit for bit,
// over 1,000 seeds (50 under -short or -race). The equality rests on
// σ ≥ 0, which the test checks first.
func TestSwitchTableMatchesPerDrawReference(t *testing.T) {
	seeds := 1000
	if testing.Short() || raceEnabled {
		seeds = 50
	}
	for _, mk := range []func() *Platform{ODROIDXU3A7, ODROIDXU3A15, IntelI7, BigLITTLE} {
		p := mk()
		t.Run(p.Name, func(t *testing.T) {
			t.Parallel()
			if !(p.SwitchJitterSigma >= 0) {
				t.Fatalf("SwitchJitterSigma %g < 0 breaks MeasureSwitchTable's precondition", p.SwitchJitterSigma)
			}
			for seed := int64(0); seed < int64(seeds); seed++ {
				got := MeasureSwitchTable(p, 500, 0.95, seed)
				want := refMeasureSwitchTable(p, 500, 0.95, seed)
				for from := range want.Seconds {
					for to, w := range want.Seconds[from] {
						if v := got.Seconds[from][to]; v != w {
							t.Fatalf("seed %d (%d,%d): %g, per-draw reference %g", seed, from, to, v, w)
						}
					}
				}
			}
		})
	}
}
