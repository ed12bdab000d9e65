package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"time"
)

// span is one timed call in a traced run. Start and end are
// nanoseconds since the recorder's base; parent is an index into the
// same recorder, -1 for a root.
type span struct {
	name       int32
	parent     int32
	id         int64
	start, end int64
}

// recorder keeps a traced run's spans in memory. One recorder belongs
// to one goroutine; concurrent clients each get their own and merge
// at the end. A nil recorder records nothing, so untraced runs share
// the traced code paths.
type recorder struct {
	base  time.Time
	names []string
	index map[string]int32
	spans []span
}

func newRecorder(base time.Time) *recorder {
	return &recorder{base: base, index: map[string]int32{}}
}

func (r *recorder) nameID(name string) int32 {
	if i, ok := r.index[name]; ok {
		return i
	}
	r.names = append(r.names, name)
	r.index[name] = int32(len(r.names) - 1)
	return int32(len(r.names) - 1)
}

// begin opens a span and returns its index for end.
func (r *recorder) begin(name string, parent int32, id int64) int32 {
	if r == nil {
		return -1
	}
	r.spans = append(r.spans, span{name: r.nameID(name), parent: parent, id: id,
		start: int64(time.Since(r.base))})
	return int32(len(r.spans) - 1)
}

func (r *recorder) end(i int32) {
	if r != nil {
		r.spans[i].end = int64(time.Since(r.base))
	}
}

// add records a span whose bounds were measured elsewhere.
func (r *recorder) add(name string, parent int32, id int64, start, end int64) {
	r.spans = append(r.spans, span{name: r.nameID(name), parent: parent, id: id, start: start, end: end})
}

// merge appends other's spans (which must share r's base).
func (r *recorder) merge(other *recorder) {
	off := int32(len(r.spans))
	for _, s := range other.spans {
		s.name = r.nameID(other.names[s.name])
		if s.parent >= 0 {
			s.parent += off
		}
		r.spans = append(r.spans, s)
	}
}

// layerStat is one span name's totals: calls, summed duration, summed
// self time (duration minus the child spans it encloses), and the
// per-call durations for quantiles.
type layerStat struct {
	Calls int
	Total time.Duration
	Self  time.Duration
	durs  []float64 // seconds
}

func (l *layerStat) meanSec() float64 {
	if l == nil || l.Calls == 0 {
		return 0
	}
	return l.Total.Seconds() / float64(l.Calls)
}

func (l *layerStat) medianSec() float64 {
	if l == nil {
		return 0
	}
	return quantile(l.durs, 0.5)
}

// stats folds the spans into per-name totals. Children of one span
// never overlap in this harness (they are sequential calls), so a
// parent's self time is its duration minus the sum of its children's.
func (r *recorder) stats() map[string]*layerStat {
	self := make([]int64, len(r.spans))
	for i, s := range r.spans {
		self[i] += s.end - s.start
		if s.parent >= 0 {
			self[s.parent] -= s.end - s.start
		}
	}
	out := map[string]*layerStat{}
	for i, s := range r.spans {
		name := r.names[s.name]
		l := out[name]
		if l == nil {
			l = &layerStat{}
			out[name] = l
		}
		l.Calls++
		l.Total += time.Duration(s.end - s.start)
		l.Self += time.Duration(self[i])
		l.durs = append(l.durs, float64(s.end-s.start)/1e9)
	}
	return out
}

// writeJSONL writes every span, one JSON object per line.
func (r *recorder) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.spans {
		if err := enc.Encode(struct {
			Name    string `json:"name"`
			Parent  int32  `json:"parent"`
			ID      int64  `json:"id"`
			StartNS int64  `json:"start_ns"`
			EndNS   int64  `json:"end_ns"`
		}{r.names[s.name], s.parent, s.id, s.start, s.end}); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printSelfTable writes the per-layer self-time table of a traced run.
func printSelfTable(w io.Writer, title string, st map[string]*layerStat) {
	names := make([]string, 0, len(st))
	for n := range st {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return st[names[i]].Self > st[names[j]].Self })
	fmt.Fprintf(w, "%s\n", title)
	fmt.Fprintf(w, "  %-28s %10s %12s %12s %12s %12s\n", "span", "calls", "total ms", "self ms", "mean us", "p50 us")
	for _, n := range names {
		l := st[n]
		fmt.Fprintf(w, "  %-28s %10d %12.3f %12.3f %12.3f %12.3f\n", n, l.Calls,
			l.Total.Seconds()*1e3, l.Self.Seconds()*1e3, l.meanSec()*1e6, l.medianSec()*1e6)
	}
}

// quantile is the linear-interpolated q-quantile of xs; NaN for an
// empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	xs = append([]float64(nil), xs...)
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// enoughTail reports whether n samples leave at least ten beyond the
// q-quantile, the fewest a tail percentile is reported on.
func enoughTail(n int, q float64) bool { return float64(n)*(1-q) >= 10 }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
