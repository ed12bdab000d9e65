package platform

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestODROIDLevels(t *testing.T) {
	p := ODROIDXU3A7()
	if p.NumLevels() != 13 {
		t.Fatalf("levels = %d, want 13", p.NumLevels())
	}
	if p.MinLevel().FreqHz != 200e6 || p.MaxLevel().FreqHz != 1400e6 {
		t.Errorf("freq range = [%g, %g]", p.MinLevel().FreqHz, p.MaxLevel().FreqHz)
	}
	for i := 1; i < p.NumLevels(); i++ {
		if p.Levels[i].FreqHz <= p.Levels[i-1].FreqHz {
			t.Errorf("levels not ascending at %d", i)
		}
		if p.Levels[i].Volt < p.Levels[i-1].Volt {
			t.Errorf("voltage not monotone at %d", i)
		}
		if p.Levels[i].Index != i {
			t.Errorf("index mismatch at %d", i)
		}
	}
}

func TestLevelAtOrAbove(t *testing.T) {
	p := ODROIDXU3A7()
	cases := []struct {
		f    float64
		want float64
	}{
		{0, 200e6},
		{200e6, 200e6},
		{201e6, 300e6},
		{650e6, 700e6},
		{1400e6, 1400e6},
		{9e9, 1400e6}, // beyond max clamps to max
	}
	for _, c := range cases {
		if got := p.LevelAtOrAbove(c.f); got.FreqHz != c.want {
			t.Errorf("LevelAtOrAbove(%g) = %g, want %g", c.f, got.FreqHz, c.want)
		}
	}
}

func TestLevelBounds(t *testing.T) {
	p := ODROIDXU3A7()
	if _, err := p.Level(-1); err == nil {
		t.Error("Level(-1) should fail")
	}
	if _, err := p.Level(13); err == nil {
		t.Error("Level(13) should fail")
	}
	if l, err := p.Level(5); err != nil || l.Index != 5 {
		t.Errorf("Level(5) = %v, %v", l, err)
	}
}

func TestPowerMonotone(t *testing.T) {
	for _, p := range []*Platform{ODROIDXU3A7(), IntelI7()} {
		for i := 1; i < p.NumLevels(); i++ {
			if p.ActivePower(p.Levels[i]) <= p.ActivePower(p.Levels[i-1]) {
				t.Errorf("%s: active power not increasing at level %d", p.Name, i)
			}
			if p.IdlePower(p.Levels[i]) < p.IdlePower(p.Levels[i-1]) {
				t.Errorf("%s: idle power decreasing at level %d", p.Name, i)
			}
		}
		for _, l := range p.Levels {
			if p.IdlePower(l) >= p.ActivePower(l) {
				t.Errorf("%s: idle power >= active at level %d", p.Name, l.Index)
			}
		}
	}
}

func TestEnergyEfficiencyOfLowerLevels(t *testing.T) {
	// The premise of DVFS energy saving: for CPU-bound work, energy at
	// a low level is below energy at the max level (power drops faster
	// than time grows).
	p := ODROIDXU3A7()
	work := 1e7 // CPU work units, no memory time
	eAt := func(l Level) float64 {
		return p.ActivePower(l) * p.JobTimeAt(work, 0, l)
	}
	if !(eAt(p.MinLevel()) < eAt(p.MaxLevel())*0.6) {
		t.Errorf("min-level energy %g not well below max-level %g",
			eAt(p.MinLevel()), eAt(p.MaxLevel()))
	}
}

func TestJobTimeAt(t *testing.T) {
	p := ODROIDXU3A7()
	l := p.MaxLevel()
	got := p.JobTimeAt(1.4e6, 0.010, l)
	want := 0.010 + 1.4e6/1.4e9
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("JobTimeAt = %g, want %g", got, want)
	}
}

func TestSwitchLatencyProperties(t *testing.T) {
	p := ODROIDXU3A7()
	rng := rand.New(rand.NewSource(7))
	if p.SampleSwitchLatency(p.Levels[3], p.Levels[3], rng) != 0 {
		t.Error("same-level switch should be free")
	}
	if p.MeanSwitchLatency(p.Levels[3], p.Levels[3]) != 0 {
		t.Error("same-level mean switch should be free")
	}
	// Larger voltage deltas take longer on average.
	small := p.MeanSwitchLatency(p.Levels[5], p.Levels[6])
	big := p.MeanSwitchLatency(p.Levels[0], p.Levels[12])
	if big <= small {
		t.Errorf("big transition %g not slower than small %g", big, small)
	}
	// Sampled latencies are positive and mostly near the mean.
	sum := 0.0
	n := 2000
	for i := 0; i < n; i++ {
		v := p.SampleSwitchLatency(p.Levels[0], p.Levels[12], rng)
		if v <= 0 {
			t.Fatalf("non-positive switch latency %g", v)
		}
		sum += v
	}
	emp := sum / float64(n)
	if math.Abs(emp-big)/big > 0.15 {
		t.Errorf("empirical mean %g far from analytic %g", emp, big)
	}
}

func TestMeasureSwitchTable(t *testing.T) {
	p := ODROIDXU3A7()
	tbl := MeasureSwitchTable(p, 400, 0.95, 11)
	n := p.NumLevels()
	for from := 0; from < n; from++ {
		for to := 0; to < n; to++ {
			v := tbl.Lookup(from, to)
			if from == to {
				if v != 0 {
					t.Errorf("diagonal (%d,%d) = %g, want 0", from, to, v)
				}
				continue
			}
			if v <= 0 {
				t.Errorf("entry (%d,%d) = %g, want > 0", from, to, v)
			}
			// 95th percentile exceeds the mean for a lognormal tail.
			if v <= p.MeanSwitchLatency(p.Levels[from], p.Levels[to]) {
				t.Errorf("p95 (%d,%d) = %g not above mean %g", from, to, v,
					p.MeanSwitchLatency(p.Levels[from], p.Levels[to]))
			}
		}
	}
	// Extreme transitions dominate the table.
	if tbl.Max() != math.Max(tbl.Lookup(0, n-1), tbl.Lookup(n-1, 0)) {
		t.Errorf("Max() = %g, expected an extreme transition to dominate", tbl.Max())
	}
	// Fig 11's scale: extremes in the low-millisecond range.
	if tbl.Max() < 1e-3 || tbl.Max() > 10e-3 {
		t.Errorf("extreme p95 switch time %g s outside Fig 11's plausible range", tbl.Max())
	}
}

func TestMeanSwitchTable(t *testing.T) {
	p := ODROIDXU3A7()
	mean := MeanSwitchTable(p)
	p95 := MeasureSwitchTable(p, 400, 0.95, 11)
	lower := 0
	cells := 0
	for from := 0; from < p.NumLevels(); from++ {
		for to := 0; to < p.NumLevels(); to++ {
			if from == to {
				continue
			}
			cells++
			if mean.Lookup(from, to) < p95.Lookup(from, to) {
				lower++
			}
		}
	}
	if lower != cells {
		t.Errorf("mean table below p95 in %d/%d cells, want all", lower, cells)
	}
}

// refSwitchTables is the sort-based reference MeasureSwitchTable must
// equal: the same RNG stream, each pair's draws taken through
// SampleSwitchLatency, fully sorted, and read at int(q·(samples−1)).
// The draws do not depend on q, so one pass yields a table per q.
func refSwitchTables(p *Platform, samples int, qs []float64, seed int64) []*SwitchTable {
	rng := rand.New(rand.NewSource(seed))
	n := p.NumLevels()
	out := make([]*SwitchTable, len(qs))
	for i := range out {
		out[i] = &SwitchTable{Seconds: make([][]float64, n)}
		for from := range out[i].Seconds {
			out[i].Seconds[from] = make([]float64, n)
		}
	}
	buf := make([]float64, samples)
	for from := 0; from < n; from++ {
		for to := 0; to < n; to++ {
			if from == to {
				continue
			}
			for s := range buf {
				buf[s] = p.SampleSwitchLatency(p.Levels[from], p.Levels[to], rng)
			}
			sort.Float64s(buf)
			for i, q := range qs {
				out[i].Seconds[from][to] = buf[int(q*float64(samples-1))]
			}
		}
	}
	return out
}

// TestSwitchTableDeterministic: a table is a pure function of its
// inputs, and equals the sort-based reference entry for entry on every
// platform, at sample counts down to one and quantiles at both ends.
func TestSwitchTableDeterministic(t *testing.T) {
	qs := []float64{0, 0.5, 0.95, 1}
	for _, p := range []*Platform{ODROIDXU3A7(), IntelI7(), BigLITTLE()} {
		for _, seed := range []int64{5, 97, 2001} {
			for _, samples := range []int{1, 2, 300, 500} {
				want := refSwitchTables(p, samples, qs, seed)
				for i, q := range qs {
					got := MeasureSwitchTable(p, samples, q, seed)
					for from := range got.Seconds {
						for to, v := range got.Seconds[from] {
							if w := want[i].Seconds[from][to]; v != w {
								t.Fatalf("%s seed %d samples %d q %g (%d,%d): %g, reference %g",
									p.Name, seed, samples, q, from, to, v, w)
							}
						}
					}
				}
			}
		}
	}
	p := ODROIDXU3A7()
	a := MeasureSwitchTable(p, 100, 0.95, 5)
	b := MeasureSwitchTable(p, 100, 0.95, 5)
	for i := range a.Seconds {
		for j := range a.Seconds[i] {
			if a.Seconds[i][j] != b.Seconds[i][j] {
				t.Fatalf("same seed gave different tables at (%d,%d)", i, j)
			}
		}
	}
}

// TestSelectKthMatchesSort: on random tie-heavy slices of every length
// 1–40, shuffled, ascending and descending, selectKth returns the
// element sort.Float64s puts at each k.
func TestSelectKthMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for n := 1; n <= 40; n++ {
		for trial := 0; trial < 30; trial++ {
			distinct := 1 + rng.Intn(n)
			a := make([]float64, n)
			for i := range a {
				a[i] = float64(rng.Intn(distinct)) / 4
			}
			sorted := append([]float64(nil), a...)
			sort.Float64s(sorted)
			switch trial % 3 {
			case 1:
				copy(a, sorted)
			case 2:
				for i := range a {
					a[i] = sorted[n-1-i]
				}
			}
			for k := 0; k < n; k++ {
				b := append([]float64(nil), a...)
				if got := selectKth(b, k); got != sorted[k] {
					t.Fatalf("selectKth(%v, %d) = %g, want %g", a, k, got, sorted[k])
				}
			}
		}
	}
}

func TestEnergyMeterExact(t *testing.T) {
	m := NewEnergyMeter(0)
	m.AddSegment(2, 1.5)
	m.AddSegment(0.5, 4)
	m.AddSegment(-1, 100) // ignored
	if math.Abs(m.EnergyJoules()-5) > 1e-12 {
		t.Errorf("energy = %g, want 5", m.EnergyJoules())
	}
	if math.Abs(m.ElapsedSec()-2.5) > 1e-12 {
		t.Errorf("elapsed = %g, want 2.5", m.ElapsedSec())
	}
}

func TestEnergyMeterSensorApproximatesExact(t *testing.T) {
	m := NewEnergyMeter(SensorRateHz)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 500; i++ {
		m.AddSegment(0.001+rng.Float64()*0.05, 0.2+rng.Float64())
	}
	exact := m.EnergyJoules()
	sensor := m.SensorEnergyJoules()
	if math.Abs(sensor-exact)/exact > 0.02 {
		t.Errorf("sensor energy %g deviates >2%% from exact %g", sensor, exact)
	}
	wantSamples := int(m.ElapsedSec() * SensorRateHz)
	if diff := m.Samples() - wantSamples; diff < -2 || diff > 2 {
		t.Errorf("samples = %d, want ≈%d", m.Samples(), wantSamples)
	}
}

// Property: active power is finite and positive across platforms/levels.
func TestPowerFiniteProperty(t *testing.T) {
	plats := []*Platform{ODROIDXU3A7(), IntelI7()}
	f := func(pi, li uint8) bool {
		p := plats[int(pi)%len(plats)]
		l := p.Levels[int(li)%p.NumLevels()]
		a, id := p.ActivePower(l), p.IdlePower(l)
		return a > 0 && id > 0 && !math.IsInf(a, 0) && !math.IsNaN(a) && id < a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBigLITTLE(t *testing.T) {
	p := BigLITTLE()
	if p.NumLevels() != 20 {
		t.Fatalf("levels = %d, want 20 (13 A7 + 7 A15)", p.NumLevels())
	}
	clusters := map[string]int{}
	for i, l := range p.Levels {
		clusters[l.Cluster]++
		if l.Index != i {
			t.Errorf("index mismatch at %d", i)
		}
		if i > 0 && p.Levels[i].EffFreqHz() < p.Levels[i-1].EffFreqHz() {
			t.Errorf("levels not ordered by effective frequency at %d", i)
		}
	}
	if clusters["A7"] != 13 || clusters["A15"] != 7 {
		t.Errorf("cluster counts = %v", clusters)
	}
	// The A15 levels extend the performance range beyond the A7's.
	if p.MaxLevel().Cluster != "A15" {
		t.Errorf("fastest level is %s, want A15", p.MaxLevel().Cluster)
	}
	if p.MaxLevel().EffFreqHz() <= 1400e6 {
		t.Errorf("max effective frequency %g not beyond the A7's", p.MaxLevel().EffFreqHz())
	}
	// But at much higher power: the fastest A15 level burns several
	// times the fastest A7 level.
	var a7max Level
	for _, l := range p.Levels {
		if l.Cluster == "A7" && (a7max.FreqHz == 0 || l.FreqHz > a7max.FreqHz) {
			a7max = l
		}
	}
	if p.ActivePower(p.MaxLevel()) < 2*p.ActivePower(a7max) {
		t.Errorf("A15 max power %g not well above A7 max %g",
			p.ActivePower(p.MaxLevel()), p.ActivePower(a7max))
	}
}

func TestClusterMigrationCost(t *testing.T) {
	p := BigLITTLE()
	// Compare two transitions from the same source with nearly equal
	// voltage deltas: one within the A7 cluster, one crossing to the
	// A15. The migration penalty must dominate the difference.
	var a7near, a15first Level
	for _, l := range p.Levels {
		if l.Cluster == "A15" && a15first.FreqHz == 0 {
			a15first = l
		}
	}
	for _, l := range p.Levels {
		if l.Cluster == "A7" && (a7near.FreqHz == 0 ||
			absf(l.Volt-a15first.Volt) < absf(a7near.Volt-a15first.Volt)) {
			a7near = l
		}
	}
	within := p.MeanSwitchLatency(p.Levels[0], a7near)
	across := p.MeanSwitchLatency(p.Levels[0], a15first)
	if across <= within+1.5e-3 {
		t.Errorf("cluster migration %g not clearly above in-cluster switch %g", across, within)
	}
}

func absf(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func TestEffFreqDefaults(t *testing.T) {
	l := Level{FreqHz: 1e9}
	if l.EffFreqHz() != 1e9 {
		t.Errorf("zero PerfScale should default to 1")
	}
	l.PerfScale = 0.5
	if l.EffFreqHz() != 2e9 {
		t.Errorf("EffFreq = %g, want 2e9", l.EffFreqHz())
	}
}
