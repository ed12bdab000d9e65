// A streaming quantile sketch: a merging t-digest. It holds a fixed
// amount of memory regardless of how many observations it absorbs,
// which is what lets the fleet tracker summarize every ingested job's
// residual without keeping a log: the per-event residual stream is
// the one fleet distribution that per-device state cannot rebuild.
//
// The sketch is deterministic: the state after N inserts is a pure
// function of the insert sequence, and Merge is a pure function of the
// two operand states, so shards merged in a fixed order give
// reproducible quantiles.
//
// Inserts are hot-path annotated and allocation-free (enforced by
// dvfsvet statically and `make alloc-gate` at run time): the sketch
// buffers into a fixed array and compacts in place.
package obs

import (
	"math"
	"slices"
)

// sketch sizing defaults. compression 200 bounds the t-digest at
// ~1.6 KB of centroids (2·compression float64 pairs) with q50/q95/q99
// errors well under 1% on 100k-sample streams.
const (
	defaultCompression = 200
	sketchBufSize      = 256
)

// QuantileSketch is a merging t-digest: centroids sized by the scale
// bound 4·W·q(1−q)/δ, so tails stay near-exact while the middle of the
// distribution compresses. The zero value is not usable; call
// NewQuantileSketch.
type QuantileSketch struct {
	compression float64
	// mean/weight are the centroids, ascending by mean; n is the live
	// count. scratchM/scratchW hold compaction output (swapped in).
	mean, weight []float64
	scratchM     []float64
	scratchW     []float64
	n            int
	// buf holds raw inserts until a compaction folds them in.
	buf    []float64
	bufLen int
	count  float64
	min    float64
	max    float64
}

// NewQuantileSketch returns an empty sketch. compression ≤ 0 selects
// the default (200). Memory is fixed at allocation time: ~4·compression
// centroid slots plus a 256-value insert buffer.
func NewQuantileSketch(compression int) *QuantileSketch {
	if compression <= 0 {
		compression = defaultCompression
	}
	capN := 4 * compression
	return &QuantileSketch{
		compression: float64(compression),
		mean:        make([]float64, capN),
		weight:      make([]float64, capN),
		scratchM:    make([]float64, capN),
		scratchW:    make([]float64, capN),
		buf:         make([]float64, sketchBufSize),
		min:         math.Inf(1),
		max:         math.Inf(-1),
	}
}

// Add inserts one observation. Non-finite values are dropped (the
// sketch represents a distribution; NaN has no rank). Allocation-free:
// the buffer and compaction scratch are fixed arrays.
//
//dvfs:hotpath
func (s *QuantileSketch) Add(v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return
	}
	if v < s.min {
		s.min = v
	}
	if v > s.max {
		s.max = v
	}
	s.count++
	s.buf[s.bufLen] = v
	s.bufLen++
	if s.bufLen == len(s.buf) {
		s.flush()
	}
}

// Count returns the number of (finite) observations absorbed.
func (s *QuantileSketch) Count() float64 { return s.count }

// Centroids returns the current centroid count after folding any
// buffered inserts — the memory-bound tests assert it never exceeds
// the fixed capacity.
func (s *QuantileSketch) Centroids() int {
	s.flush()
	return s.n
}

// flush folds the insert buffer into the centroid list.
func (s *QuantileSketch) flush() {
	if s.bufLen == 0 {
		return
	}
	slices.Sort(s.buf[:s.bufLen])
	s.compact(s.buf[:s.bufLen], nil)
	s.bufLen = 0
}

// compact merges the existing centroids with a second ascending
// sequence (bw == nil means unit weights) into the scratch arrays
// under the scale bound, then swaps scratch in. Pure function of the
// operand states — the determinism contract lives here.
func (s *QuantileSketch) compact(bm, bw []float64) {
	i, j := 0, 0
	k := 0
	var cm, cw float64
	wSoFar := 0.0
	first := true
	for i < s.n || j < len(bm) {
		var m, w float64
		// Ties between the two sequences break toward the existing
		// centroids, which keeps the merge independent of which operand
		// carried the value.
		if i < s.n && (j >= len(bm) || s.mean[i] <= bm[j]) {
			m, w = s.mean[i], s.weight[i]
			i++
		} else {
			m = bm[j]
			w = 1
			if bw != nil {
				w = bw[j]
			}
			j++
		}
		if first {
			cm, cw = m, w
			first = false
			continue
		}
		q := (wSoFar + (cw+w)/2) / s.count
		limit := 4 * s.count * q * (1 - q) / s.compression
		if cw+w <= limit || k == len(s.scratchM)-1 {
			// Merge into the current centroid (forced when scratch is at
			// capacity — cannot happen under the scale bound, but the
			// guard keeps even a pathological stream allocation-free).
			cm = (cm*cw + m*w) / (cw + w)
			cw += w
		} else {
			s.scratchM[k] = cm
			s.scratchW[k] = cw
			k++
			wSoFar += cw
			cm, cw = m, w
		}
	}
	if !first {
		s.scratchM[k] = cm
		s.scratchW[k] = cw
		k++
	}
	s.mean, s.scratchM = s.scratchM, s.mean
	s.weight, s.scratchW = s.scratchW, s.weight
	s.n = k
}

// Merge folds o into s. Deterministic: the result depends only on the
// two operand states, so shards merged in a fixed order produce
// bit-identical fleet sketches. Both sketches' insert buffers are
// folded in first (o's estimates are unchanged by this).
func (s *QuantileSketch) Merge(o *QuantileSketch) {
	if o == nil {
		return
	}
	s.flush()
	o.flush()
	if o.n == 0 {
		return
	}
	if o.min < s.min {
		s.min = o.min
	}
	if o.max > s.max {
		s.max = o.max
	}
	s.count += o.count
	s.compact(o.mean[:o.n], o.weight[:o.n])
}

// Quantile estimates the p-quantile (clamped to [0,1]) with linear
// interpolation between centroid means, anchored at the exact min and
// max. NaN with no observations. Folds buffered inserts first.
func (s *QuantileSketch) Quantile(p float64) float64 {
	s.flush()
	if s.n == 0 {
		return math.NaN()
	}
	if p <= 0 {
		return s.min
	}
	if p >= 1 {
		return s.max
	}
	target := p * s.count
	// Centroid i sits at cumulative position wSoFar + weight[i]/2.
	if target <= s.weight[0]/2 {
		// Below the first centroid's midpoint: interpolate from min.
		return s.min + (s.mean[0]-s.min)*(target/(s.weight[0]/2+1e-300))
	}
	wSoFar := 0.0
	for i := 0; i < s.n-1; i++ {
		pos := wSoFar + s.weight[i]/2
		next := wSoFar + s.weight[i] + s.weight[i+1]/2
		if target <= next {
			frac := (target - pos) / (next - pos)
			return s.mean[i] + frac*(s.mean[i+1]-s.mean[i])
		}
		wSoFar += s.weight[i]
	}
	// Above the last centroid's midpoint: interpolate toward max.
	last := s.n - 1
	pos := wSoFar + s.weight[last]/2
	span := s.count - pos
	if span <= 0 {
		return s.max
	}
	frac := (target - pos) / span
	if frac > 1 {
		frac = 1
	}
	return s.mean[last] + frac*(s.max-s.mean[last])
}
