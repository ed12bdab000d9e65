// Command dvfstsdb inspects, queries, compacts, and benchmarks the
// embedded telemetry store (the -tsdb-dir directory a dvfsd daemon
// writes) offline — no daemon required.
//
// Usage:
//
//	dvfstsdb -dir DIR                          # inspect: stats + series
//	dvfstsdb -dir DIR -query METRIC [-labels a=b,c=d]
//	         [-from T] [-to T] [-step 30s] [-agg mean] [-json]
//	dvfstsdb -dir DIR -compact [-keep 6h]      # rewrite segments
//	dvfstsdb -bench [-trace dec.jsonl] [-samples N] [-out bench.json]
//
// Times accept RFC3339, unix seconds, or "now" and offsets ("-15m")
// relative to the newest stored sample, parsed as GET /v1/query parses
// them (tsdb.ParseTime). -compact rewrites every segment from
// the recovered chunks — reclaiming torn tails, dropped series, and
// (with -keep) expired history — then atomically swaps the new
// segments in. -bench measures compression, append cost, and range-
// query latency on dvfssim-generated (or synthetic) telemetry and
// writes the numbers as JSON for the Makefile's tsdb-bench gate.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"time"

	"repro/internal/obs"
	"repro/internal/tsdb"
)

func main() {
	dir := flag.String("dir", "", "telemetry store directory (a dvfsd -tsdb-dir)")
	query := flag.String("query", "", "metric to query (empty = inspect the store)")
	labels := flag.String("labels", "", "label selectors for -query (name=value,name2=value2)")
	from := flag.String("from", "", "range start: RFC3339, unix seconds, or relative to the newest sample (-15m); default -15m")
	to := flag.String("to", "", "range end; default the newest stored sample")
	step := flag.Duration("step", 0, "rollup bucket width for -query (0 = raw samples)")
	agg := flag.String("agg", "", "rollup: mean, min, max, count, rate (default mean)")
	jsonOut := flag.Bool("json", false, "emit JSON instead of tables")
	compact := flag.Bool("compact", false, "rewrite the store's segments in place")
	keep := flag.Duration("keep", 0, "with -compact, drop samples older than this before the newest (0 = keep all)")
	bench := flag.Bool("bench", false, "run the offline benchmark instead of reading a store")
	trace := flag.String("trace", "", "with -bench, ingest telemetry derived from this decision-trace JSONL (dvfssim -trace)")
	samples := flag.Int("samples", 60000, "with -bench, samples for the append microbenchmark")
	out := flag.String("out", "", "with -bench, write the results JSON here (default stdout)")
	flag.Parse()

	err := func() error {
		switch {
		case *bench:
			return runBench(*trace, *samples, *out)
		case *dir == "":
			return fmt.Errorf("missing -dir (or -bench)")
		case *compact:
			return runCompact(*dir, *keep)
		case *query != "":
			return runQuery(*dir, *query, *labels, *from, *to, *step, *agg, *jsonOut)
		default:
			return runInspect(*dir, *jsonOut)
		}
	}()
	if err != nil {
		fmt.Fprintln(os.Stderr, "dvfstsdb:", err)
		os.Exit(1)
	}
}

// openReadOnly opens a store over dir without disturbing it: replay
// recovers committed chunks (and truncates torn tails, exactly as the
// daemon would on restart).
func openReadOnly(dir string) (*tsdb.Store, error) {
	if _, err := os.Stat(dir); err != nil {
		return nil, err
	}
	return tsdb.Open(tsdb.Options{Dir: dir, Retention: -1})
}

// fullRange spans every representable sample (half the int64 range so
// step alignment can't overflow).
const (
	minTime = math.MinInt64 / 4
	maxTime = math.MaxInt64 / 4
)

// newestSample returns the newest timestamp across every series (0 if
// the store is empty) — the CLI's anchor for relative times.
func newestSample(s *tsdb.Store) int64 {
	var newest int64
	for _, meta := range s.SeriesList() {
		res, err := s.Query(tsdb.Query{Metric: meta.Metric, Labels: meta.Labels, FromMs: minTime, ToMs: maxTime})
		if err != nil {
			continue
		}
		for _, sr := range res {
			if n := len(sr.Points); n > 0 && sr.Points[n-1].T > newest {
				newest = sr.Points[n-1].T
			}
		}
	}
	return newest
}

func runInspect(dir string, jsonOut bool) error {
	s, err := openReadOnly(dir)
	if err != nil {
		return err
	}
	defer s.Close()
	st := s.Stats()
	series := s.SeriesList()
	if jsonOut {
		return json.NewEncoder(os.Stdout).Encode(struct {
			Stats  tsdb.Stats        `json:"stats"`
			Series []tsdb.SeriesMeta `json:"series"`
		}{st, series})
	}
	fmt.Printf("store      %s\n", dir)
	fmt.Printf("series     %d\n", st.Series)
	fmt.Printf("samples    %d\n", st.Samples)
	fmt.Printf("chunks     %d sealed\n", st.SealedChunks)
	fmt.Printf("bytes      %d in memory (%.2f B/sample)\n", st.Bytes, st.BytesPerSamp)
	fmt.Printf("disk       %d segments, %d bytes\n", st.DiskSegments, st.DiskBytes)
	if newest := newestSample(s); newest != 0 {
		fmt.Printf("newest     %s\n", time.UnixMilli(newest).UTC().Format(time.RFC3339))
	}
	for _, m := range series {
		fmt.Println("  " + m.Key())
	}
	return nil
}

func runQuery(dir, metric, labelSel, fromS, toS string, step time.Duration, aggS string, jsonOut bool) error {
	s, err := openReadOnly(dir)
	if err != nil {
		return err
	}
	defer s.Close()

	lbls, err := tsdb.ParseLabels(labelSel)
	if err != nil {
		return err
	}
	agg, err := tsdb.ParseAgg(aggS)
	if err != nil {
		return err
	}
	anchor := time.UnixMilli(newestSample(s))
	toT, err := tsdb.ParseTime(toS, anchor)
	if err != nil {
		return fmt.Errorf("-to: %w", err)
	}
	if toT.IsZero() {
		toT = anchor
	}
	fromT, err := tsdb.ParseTime(fromS, anchor)
	if err != nil {
		return fmt.Errorf("-from: %w", err)
	}
	if fromT.IsZero() {
		fromT = toT.Add(-15 * time.Minute)
	}
	res, err := s.Query(tsdb.Query{
		Metric: metric, Labels: lbls,
		FromMs: fromT.UnixMilli(), ToMs: toT.UnixMilli(),
		StepMs: step.Milliseconds(), Agg: agg,
	})
	if err != nil {
		return err
	}
	if jsonOut {
		if res == nil {
			res = []tsdb.SeriesResult{}
		}
		return json.NewEncoder(os.Stdout).Encode(res)
	}
	if len(res) == 0 {
		fmt.Println("no samples in range")
		return nil
	}
	for _, sr := range res {
		fmt.Println(sr.Meta.Key())
		for _, pt := range sr.Points {
			fmt.Printf("  %s  %g\n", time.UnixMilli(pt.T).UTC().Format(time.RFC3339), pt.V)
		}
	}
	return nil
}

// runCompact rewrites every segment from the recovered chunks into a
// sibling directory, then swaps the new segments in. Reclaims torn
// tails and, with keep > 0, history older than the newest sample minus
// keep.
func runCompact(dir string, keep time.Duration) error {
	src, err := openReadOnly(dir)
	if err != nil {
		return err
	}
	before := src.Stats()

	cutoff := int64(minTime)
	if keep > 0 {
		if newest := newestSample(src); newest != 0 {
			cutoff = newest - keep.Milliseconds()
		}
	}
	tmp := dir + ".compact"
	if err := os.RemoveAll(tmp); err != nil {
		return err
	}
	dst, err := tsdb.Open(tsdb.Options{Dir: tmp, Retention: -1})
	if err != nil {
		src.Close()
		return err
	}
	copied := int64(0)
	for _, meta := range src.SeriesList() {
		res, err := src.Query(tsdb.Query{Metric: meta.Metric, Labels: meta.Labels, FromMs: cutoff, ToMs: maxTime})
		if err != nil {
			src.Close()
			dst.Close()
			return fmt.Errorf("reading %s: %w", meta.Key(), err)
		}
		for _, sr := range res {
			// Exact-label match only: Query treats labels as a subset
			// selector, so a superset series would be copied twice.
			if sr.Meta.Key() != meta.Key() {
				continue
			}
			out := dst.Series(meta.Metric, meta.Labels...)
			for _, pt := range sr.Points {
				if out.Append(pt.T, pt.V) {
					copied++
				}
			}
		}
	}
	src.Close()
	if err := dst.Close(); err != nil {
		return err
	}

	// Swap: the old segments leave, the rewritten ones move in. A crash
	// between the two loops loses no samples that were expired anyway —
	// the rewritten set still sits intact in tmp.
	old, err := filepath.Glob(filepath.Join(dir, "*.tsb"))
	if err != nil {
		return err
	}
	for _, p := range old {
		if err := os.Remove(p); err != nil {
			return err
		}
	}
	fresh, err := filepath.Glob(filepath.Join(tmp, "*.tsb"))
	if err != nil {
		return err
	}
	for _, p := range fresh {
		if err := os.Rename(p, filepath.Join(dir, filepath.Base(p))); err != nil {
			return err
		}
	}
	if err := os.RemoveAll(tmp); err != nil {
		return err
	}

	after, err := openReadOnly(dir)
	if err != nil {
		return err
	}
	st := after.Stats()
	after.Close()
	fmt.Printf("compacted  %s\n", dir)
	fmt.Printf("samples    %d -> %d (%d copied)\n", before.Samples, st.Samples, copied)
	fmt.Printf("disk       %d -> %d bytes\n", before.DiskBytes, st.DiskBytes)
	return nil
}

// benchResult is the tsdb-bench JSON the Makefile gate asserts on.
type benchResult struct {
	Source            string  `json:"source"`
	Samples           int64   `json:"samples"`
	BytesPerSample    float64 `json:"bytes_per_sample"`
	CompressionVsRaw  float64 `json:"compression_vs_raw16"`
	AppendNsPerOp     float64 `json:"append_ns_per_op"`
	AppendAllocsPerOp float64 `json:"append_allocs_per_op"`
	Query1h1sMillis   float64 `json:"query_1h_1s_ms"`
	QueryPoints       int     `json:"query_points"`
}

func runBench(tracePath string, appendN int, outPath string) error {
	if appendN < 1000 {
		appendN = 1000
	}
	if appendN > 60000 {
		appendN = 60000 // one chunk holds at most 65535 samples
	}
	res := benchResult{Source: "synthetic"}

	// Compression: ingest realistic telemetry — series derived from a
	// dvfssim decision trace when given, synthetic scrape-shaped series
	// otherwise — then seal everything and compare against raw 16-byte
	// (t, v) points.
	store, err := tsdb.Open(tsdb.Options{Retention: -1})
	if err != nil {
		return err
	}
	if tracePath != "" {
		res.Source = "trace"
		if err := ingestTrace(store, tracePath); err != nil {
			return err
		}
	} else {
		ingestSynthetic(store)
	}
	if err := store.Close(); err != nil {
		return err
	}
	st := store.Stats()
	if st.Samples == 0 {
		return fmt.Errorf("no samples ingested (empty trace?)")
	}
	res.Samples = st.Samples
	res.BytesPerSample = st.BytesPerSamp
	res.CompressionVsRaw = 16 / st.BytesPerSamp

	// Append cost: time appendN scrape-shaped samples into one series
	// sized to avoid block rotation, so the number is the pure hot
	// path. Mallocs are counted around the loop on a single OS thread;
	// the minimum over a few repetitions discards stray runtime
	// allocations (timer wheels, GC assists) that are not the store's.
	ts := make([]int64, appendN)
	vs := make([]float64, appendN)
	base := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC).UnixMilli()
	for i := range ts {
		ts[i] = base + int64(i)*5000
		vs[i] = 100 + 3*math.Sin(float64(i)/40) + float64(i%7)
	}
	res.AppendNsPerOp = math.Inf(1)
	res.AppendAllocsPerOp = math.Inf(1)
	for rep := 0; rep < 3; rep++ {
		benchStore, err := tsdb.Open(tsdb.Options{
			Retention: -1,
			BlockDur:  1000 * time.Hour,
			// Sized for the encoder's worst case so the chunk never fills:
			// the loop below is pure hot path, no rotations.
			ChunkBytes: appendN*19 + 64,
		})
		if err != nil {
			return err
		}
		sr := benchStore.Series("bench_metric", tsdb.Label{Name: "shape", Value: "scrape"})
		sr.Append(base-5000, 0) // allocate the head buffer off the clock
		runtime.LockOSThread()
		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		for i := range ts {
			sr.Append(ts[i], vs[i])
		}
		elapsed := time.Since(t0)
		runtime.ReadMemStats(&m1)
		runtime.UnlockOSThread()
		res.AppendNsPerOp = math.Min(res.AppendNsPerOp, float64(elapsed.Nanoseconds())/float64(appendN))
		res.AppendAllocsPerOp = math.Min(res.AppendAllocsPerOp, float64(m1.Mallocs-m0.Mallocs)/float64(appendN))
		benchStore.Close()
	}

	// Range query: one hour at 1 s resolution (3600 samples), median
	// latency over repeated raw queries.
	qStore, err := tsdb.Open(tsdb.Options{Retention: -1})
	if err != nil {
		return err
	}
	qs := qStore.Series("bench_query")
	for i := 0; i < 3600; i++ {
		qs.Append(base+int64(i)*1000, 50+10*math.Sin(float64(i)/60)+float64(i%5))
	}
	var lat []float64
	q := tsdb.Query{Metric: "bench_query", FromMs: base, ToMs: base + 3599*1000}
	for i := 0; i < 51; i++ {
		t0 := time.Now()
		out, err := qStore.Query(q)
		if err != nil {
			return err
		}
		if i == 0 {
			if len(out) != 1 {
				return fmt.Errorf("query matched %d series, want 1", len(out))
			}
			res.QueryPoints = len(out[0].Points)
		}
		lat = append(lat, float64(time.Since(t0).Nanoseconds())/1e6)
	}
	sort.Float64s(lat)
	res.Query1h1sMillis = lat[len(lat)/2]
	qStore.Close()

	enc, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	enc = append(enc, '\n')
	if outPath != "" {
		if err := os.WriteFile(outPath, enc, 0o644); err != nil {
			return err
		}
	}
	_, err = os.Stdout.Write(enc)
	return err
}

// ingestTrace replays a decision-trace JSONL through an obs.Registry
// and the same scrape loop dvfsd runs, so the stored telemetry has
// exactly the production shape: counters ticking up, histogram
// quantiles moving slowly, gauges stepping between levels. One scrape
// tick per decision, five simulated seconds apart.
func ingestTrace(store *tsdb.Store, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()

	reg := obs.NewRegistry()
	decisions := reg.CounterVec("sim_decisions_total",
		"Decisions by workload and chosen level.", "workload", "level")
	missTotal := reg.CounterVec("sim_misses_total",
		"Deadline misses by workload.", "workload")
	execH := reg.HistogramVec("sim_exec_seconds",
		"Actual job execution time.", obs.LogLinearBuckets(1e-4, 10, 5), "workload")
	residH := reg.HistogramVec("sim_residual_seconds",
		"Prediction residual magnitude.", obs.LogLinearBuckets(1e-6, 1, 5), "workload")
	levelG := reg.GaugeVec("sim_level", "Last chosen DVFS level.", "workload")
	freqG := reg.GaugeVec("sim_freq_khz", "Last chosen frequency.", "workload")
	scraper := tsdb.NewScraper(store, reg, 5*time.Second, nil)

	base := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	line, tick := 0, 0
	for sc.Scan() {
		line++
		if len(sc.Bytes()) == 0 {
			continue
		}
		var e obs.DecisionEvent
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			return fmt.Errorf("%s:%d: %w", path, line, err)
		}
		decisions.With(e.Workload, strconv.Itoa(e.Level)).Inc()
		levelG.With(e.Workload).Set(float64(e.Level))
		freqG.With(e.Workload).Set(float64(e.FreqKHz))
		if e.Done {
			execH.With(e.Workload).Observe(e.ActualExecSec)
			if e.Missed {
				missTotal.With(e.Workload).Inc()
			}
			if e.Predicted {
				residH.With(e.Workload).Observe(math.Abs(e.ResidualSec))
			}
		}
		scraper.Tick(base.Add(time.Duration(tick) * 5 * time.Second))
		tick++
	}
	return sc.Err()
}

// ingestSynthetic fills the store with scrape-shaped series (slow
// drifts, counters, step changes) when no trace is supplied. Gauge
// values carry a bounded mantissa, mirroring what obs.Scrape emits —
// raw full-mantissa floats never reach the store in production.
func ingestSynthetic(store *tsdb.Store) {
	base := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC).UnixMilli()
	for s := 0; s < 8; s++ {
		sr := store.Series("synthetic_gauge", tsdb.Label{Name: "n", Value: strconv.Itoa(s)})
		ctr := store.Series("synthetic_counter", tsdb.Label{Name: "n", Value: strconv.Itoa(s)})
		total := 0.0
		for i := 0; i < 4000; i++ {
			t := base + int64(i)*5000
			g := 100 + 5*math.Sin(float64(i+s*37)/50) + float64((i*7+s)%11)
			sr.Append(t, math.Float64frombits(math.Float64bits(g)&^(1<<40-1)))
			total += float64((i + s) % 13)
			ctr.Append(t, total)
		}
	}
}
