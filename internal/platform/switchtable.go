package platform

import "math/rand"

// SwitchTable holds per-transition DVFS switch-time estimates, indexed
// [from][to]. The paper microbenchmarks every (start, end) frequency
// pair and uses the 95th-percentile times "to be conservative ...
// while omitting rare outliers" (§3.4, Fig 11).
type SwitchTable struct {
	// Seconds[from][to] is the estimated switch latency.
	Seconds [][]float64
}

// Lookup returns the estimated latency from level index `from` to `to`.
func (t *SwitchTable) Lookup(from, to int) float64 {
	return t.Seconds[from][to]
}

// Max returns the largest entry, a conservative bound used when the
// destination level is not yet known.
func (t *SwitchTable) Max() float64 {
	m := 0.0
	for _, row := range t.Seconds {
		for _, v := range row {
			if v > m {
				m = v
			}
		}
	}
	return m
}

// MeasureSwitchTable microbenchmarks the platform's DVFS transitions:
// it samples every (from, to) pair `samples` times and records the
// q-quantile (the paper uses q = 0.95). It reproduces Fig 11. The
// quantile is the order statistic at index int(q·(samples−1)) of the
// sorted draws, selected in place rather than by sorting them.
func MeasureSwitchTable(p *Platform, samples int, q float64, seed int64) *SwitchTable {
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

// selectKth returns the value sort.Float64s would leave at a[k],
// reordering a in place: Hoare-partition quickselect with a
// median-of-three pivot, expected O(len(a)). a must hold no NaN.
func selectKth(a []float64, k int) float64 {
	lo, hi := 0, len(a)-1
	for lo < hi {
		mid := lo + (hi-lo)/2
		if a[mid] < a[lo] {
			a[lo], a[mid] = a[mid], a[lo]
		}
		if a[hi] < a[lo] {
			a[lo], a[hi] = a[hi], a[lo]
		}
		if a[hi] < a[mid] {
			a[mid], a[hi] = a[hi], a[mid]
		}
		pivot := a[mid]
		i, j := lo, hi
		for i <= j {
			for a[i] < pivot {
				i++
			}
			for pivot < a[j] {
				j--
			}
			if i <= j {
				a[i], a[j] = a[j], a[i]
				i++
				j--
			}
		}
		// Now a[lo..j] ≤ pivot ≤ a[i..hi], and everything strictly
		// between j and i equals the pivot.
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return a[k]
		}
	}
	return a[k]
}

// MeanSwitchTable builds a table of analytic mean latencies, the
// non-conservative alternative ablated against the 95th-percentile
// table.
func MeanSwitchTable(p *Platform) *SwitchTable {
	n := p.NumLevels()
	tbl := &SwitchTable{Seconds: make([][]float64, n)}
	for from := 0; from < n; from++ {
		tbl.Seconds[from] = make([]float64, n)
		for to := 0; to < n; to++ {
			tbl.Seconds[from][to] = p.MeanSwitchLatency(p.Levels[from], p.Levels[to])
		}
	}
	return tbl
}
