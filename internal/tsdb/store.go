package tsdb

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Label is one name=value dimension of a series.
type Label struct {
	Name  string `json:"name"`
	Value string `json:"value"`
}

// SeriesMeta identifies a series: metric name plus sorted labels.
type SeriesMeta struct {
	Metric string  `json:"metric"`
	Labels []Label `json:"labels,omitempty"`
}

// Key renders the canonical series identity ("name{a=b,c=d}").
func (m SeriesMeta) Key() string {
	if len(m.Labels) == 0 {
		return m.Metric
	}
	var b strings.Builder
	b.WriteString(m.Metric)
	b.WriteByte('{')
	for i, l := range m.Labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Name)
		b.WriteByte('=')
		b.WriteString(l.Value)
	}
	b.WriteByte('}')
	return b.String()
}

// Options configures Open. The zero value of each field selects a
// production-reasonable default.
type Options struct {
	// Dir enables append-only disk persistence; "" keeps the store
	// memory-only (history dies with the process).
	Dir string
	// BlockDur is the fixed block duration: every series seals its open
	// chunk at block boundaries, so a crash loses at most the open block
	// per series plus a torn tail record. 0 → 10m.
	BlockDur time.Duration
	// Retention drops sealed chunks (and whole disk segments) whose
	// newest sample is older than this. 0 → 6h; negative keeps forever.
	Retention time.Duration
	// ChunkBytes sizes each series' chunk buffer; a chunk seals early
	// when full. 0 → 2048 (roughly 1–10k samples compressed).
	ChunkBytes int
	// SegmentBytes rotates disk segment files past this size so
	// retention can unlink whole expired files. 0 → 8 MiB.
	SegmentBytes int64
}

func (o *Options) defaults() {
	if o.BlockDur <= 0 {
		o.BlockDur = 10 * time.Minute
	}
	if o.Retention == 0 {
		o.Retention = 6 * time.Hour
	}
	if o.ChunkBytes < MinCap {
		o.ChunkBytes = 2048
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 8 << 20
	}
}

// Store holds every series. All methods are safe for concurrent use;
// Append on distinct series never contend with each other.
type Store struct {
	opts Options

	mu     sync.RWMutex
	series map[string]*Series

	disk *diskLog // nil when memory-only
}

// Open creates a store, replaying any persisted blocks in opts.Dir
// (recovery truncates a torn tail record and keeps everything before
// it).
func Open(opts Options) (*Store, error) {
	opts.defaults()
	s := &Store{opts: opts, series: map[string]*Series{}}
	if opts.Dir != "" {
		disk, err := openDiskLog(opts.Dir, opts.SegmentBytes)
		if err != nil {
			return nil, err
		}
		s.disk = disk
		if err := disk.replay(func(meta SeriesMeta, c memChunk) {
			sr := s.getOrCreate(meta)
			sr.mu.Lock()
			sr.sealed = append(sr.sealed, c)
			if !sr.haveLast || c.maxT > sr.lastT {
				sr.lastT = c.maxT
				sr.haveLast = true
			}
			sr.mu.Unlock()
		}); err != nil {
			disk.close()
			return nil, err
		}
	}
	return s, nil
}

// Close seals and persists every open head chunk, then closes the disk
// log. A graceful shutdown therefore loses nothing; only a crash can
// drop the open block.
func (s *Store) Close() error {
	s.mu.RLock()
	all := make([]*Series, 0, len(s.series))
	for _, sr := range s.series {
		all = append(all, sr)
	}
	s.mu.RUnlock()
	for _, sr := range all {
		sr.mu.Lock()
		sr.seal()
		sr.mu.Unlock()
	}
	if s.disk != nil {
		return s.disk.close()
	}
	return nil
}

// Series returns the series for metric+labels, creating it on first
// use. Labels are copied and sorted by name.
func (s *Store) Series(metric string, labels ...Label) *Series {
	meta := SeriesMeta{Metric: metric}
	if len(labels) > 0 {
		meta.Labels = append([]Label(nil), labels...)
		sort.Slice(meta.Labels, func(i, j int) bool { return meta.Labels[i].Name < meta.Labels[j].Name })
	}
	return s.getOrCreate(meta)
}

func (s *Store) getOrCreate(meta SeriesMeta) *Series {
	key := meta.Key()
	s.mu.RLock()
	sr := s.series[key]
	s.mu.RUnlock()
	if sr != nil {
		return sr
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if sr = s.series[key]; sr != nil {
		return sr
	}
	sr = &Series{store: s, meta: meta, key: key}
	s.series[key] = sr
	return sr
}

// SeriesList returns every series' identity, sorted by key.
func (s *Store) SeriesList() []SeriesMeta {
	s.mu.RLock()
	keys := make([]string, 0, len(s.series))
	for k := range s.series {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]SeriesMeta, 0, len(keys))
	for _, k := range keys {
		out = append(out, s.series[k].meta)
	}
	s.mu.RUnlock()
	return out
}

// Stats summarizes the store for /metrics gauges and dvfstsdb inspect.
type Stats struct {
	Series       int     `json:"series"`
	Samples      int64   `json:"samples"`
	Bytes        int64   `json:"bytes"`
	SealedChunks int     `json:"sealed_chunks"`
	BytesPerSamp float64 `json:"bytes_per_sample"`
	DiskSegments int     `json:"disk_segments"`
	DiskBytes    int64   `json:"disk_bytes"`
}

// Stats walks every series (cheap: per-series counters, no decoding).
func (s *Store) Stats() Stats {
	s.mu.RLock()
	all := make([]*Series, 0, len(s.series))
	for _, sr := range s.series {
		all = append(all, sr)
	}
	s.mu.RUnlock()
	var st Stats
	st.Series = len(all)
	for _, sr := range all {
		sr.mu.Lock()
		for _, c := range sr.sealed {
			st.Samples += int64(c.count)
			st.Bytes += int64(len(c.data))
			st.SealedChunks++
		}
		st.Samples += int64(sr.enc.Count())
		if sr.enc.Count() > 0 {
			st.Bytes += int64(len(sr.enc.Bytes()))
		}
		sr.mu.Unlock()
	}
	if st.Samples > 0 {
		st.BytesPerSamp = float64(st.Bytes) / float64(st.Samples)
	}
	if s.disk != nil {
		segs, bytes := s.disk.stats()
		st.DiskSegments, st.DiskBytes = segs, bytes
	}
	return st
}

// memChunk is a sealed, immutable Gorilla chunk held in memory.
type memChunk struct {
	minT, maxT int64
	count      int
	data       []byte
}

// Series is one appendable time series. Appends must carry strictly
// increasing timestamps; regressions and duplicates are dropped (the
// scrape loop samples one clock, so this only fires on clock steps).
type Series struct {
	store *Store
	meta  SeriesMeta
	key   string

	mu       sync.Mutex
	enc      Encoder
	headBuf  []byte
	headMinT int64
	// headLimit is the exclusive end of the open block; crossing it
	// seals the chunk so every series cuts at the same boundaries.
	headLimit int64
	lastT     int64
	haveLast  bool
	sealed    []memChunk
}

// Meta returns the series identity.
func (sr *Series) Meta() SeriesMeta { return sr.meta }

// Append records one sample at t (Unix milliseconds). It reports
// whether the sample was accepted (false only for timestamp
// regressions). The fast path — encoding into the open chunk — is
// allocation-free; sealing a full or boundary-crossing chunk allocates
// once per block, off the per-sample path.
//
//dvfs:hotpath
func (sr *Series) Append(t int64, v float64) bool {
	sr.mu.Lock()
	if sr.haveLast && t <= sr.lastT {
		sr.mu.Unlock()
		return false
	}
	if sr.headBuf != nil && t < sr.headLimit && sr.enc.Append(t, v) {
		if sr.enc.Count() == 1 {
			sr.headMinT = t
		}
		sr.lastT = t
		sr.haveLast = true
		sr.mu.Unlock()
		return true
	}
	//dvfs:allow-alloc block rotation: seals the chunk and allocates a fresh buffer once per block, amortized over thousands of samples
	sr.appendSlow(t, v)
	sr.mu.Unlock()
	return true
}

// appendSlow seals the open chunk (if any), rotates to a new block
// containing t, and encodes the sample there.
func (sr *Series) appendSlow(t int64, v float64) {
	sr.seal()
	if sr.headBuf == nil {
		sr.headBuf = make([]byte, sr.store.opts.ChunkBytes)
	}
	sr.enc.Reset(sr.headBuf)
	block := sr.store.opts.BlockDur.Milliseconds()
	sr.headLimit = (floorDiv(t, block) + 1) * block
	if !sr.enc.Append(t, v) {
		// Impossible by construction (fresh buffer ≥ MinCap), but never
		// lose the invariant silently.
		panic("tsdb: append into a fresh chunk failed")
	}
	sr.headMinT = t
	sr.lastT = t
	sr.haveLast = true
	if ret := sr.store.opts.Retention; ret >= 0 {
		// Prune this series inline (maybeRetain's TryLock would skip the
		// lock we already hold), then sweep the rest of the store.
		sr.pruneLocked(t - ret.Milliseconds())
	}
	sr.store.maybeRetain(t)
}

// pruneLocked drops sealed chunks older than cutoff. Caller holds
// sr.mu.
func (sr *Series) pruneLocked(cutoff int64) {
	n := 0
	for _, c := range sr.sealed {
		if c.maxT >= cutoff {
			sr.sealed[n] = c
			n++
		}
	}
	clear(sr.sealed[n:])
	sr.sealed = sr.sealed[:n]
}

// seal closes the open chunk into the sealed list and hands it to the
// disk log. Caller holds sr.mu.
func (sr *Series) seal() {
	if sr.enc.Count() == 0 {
		return
	}
	data := append([]byte(nil), sr.enc.Bytes()...)
	c := memChunk{minT: sr.headMinT, maxT: sr.lastT, count: sr.enc.Count(), data: data}
	sr.sealed = append(sr.sealed, c)
	sr.enc.Reset(sr.headBuf)
	if sr.store.disk != nil {
		sr.store.disk.appendChunk(sr.meta, c)
	}
}

// maybeRetain drops expired chunks. Called on block rotation — cheap
// enough to run every time, and rotation is the only moment data ages
// past a boundary.
func (s *Store) maybeRetain(nowMs int64) {
	if s.opts.Retention < 0 {
		return
	}
	cutoff := nowMs - s.opts.Retention.Milliseconds()
	s.mu.RLock()
	all := make([]*Series, 0, len(s.series))
	for _, sr := range s.series {
		all = append(all, sr)
	}
	s.mu.RUnlock()
	for _, sr := range all {
		// TryLock: a contended series is mid-append and will prune
		// itself on its own rotation; never stall one series' append on
		// another's housekeeping.
		if sr.mu.TryLock() {
			sr.pruneLocked(cutoff)
			sr.mu.Unlock()
		}
	}
	if s.disk != nil {
		s.disk.dropExpired(cutoff)
	}
}

// floorDiv is integer division rounding toward negative infinity, so
// pre-epoch timestamps still block-align.
func floorDiv(a, b int64) int64 {
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}

// Agg selects the rollup reported per step bucket.
type Agg string

// Aggregations: mean/min/max/count roll raw samples up per bucket;
// rate is the per-second increase of a counter within the bucket
// (counter resets clamp to the post-reset value).
const (
	AggMean  Agg = "mean"
	AggMin   Agg = "min"
	AggMax   Agg = "max"
	AggCount Agg = "count"
	AggRate  Agg = "rate"
)

// ParseAgg validates an aggregation name ("" → mean).
func ParseAgg(s string) (Agg, error) {
	switch Agg(s) {
	case "":
		return AggMean, nil
	case AggMean, AggMin, AggMax, AggCount, AggRate:
		return Agg(s), nil
	}
	return "", fmt.Errorf("tsdb: unknown aggregation %q (mean, min, max, count, rate)", s)
}

// ParseTime resolves a query bound: RFC3339, unix seconds (integer or
// float), the literal "now", or a duration offset ("-15m"); "now" and
// offsets are relative to anchor. Empty returns the zero time so
// callers can apply their own default.
func ParseTime(s string, anchor time.Time) (time.Time, error) {
	if s == "" {
		return time.Time{}, nil
	}
	if s == "now" {
		return anchor, nil
	}
	if d, err := time.ParseDuration(s); err == nil {
		return anchor.Add(d), nil
	}
	if t, err := time.Parse(time.RFC3339, s); err == nil {
		return t, nil
	}
	if f, err := strconv.ParseFloat(s, 64); err == nil && !math.IsNaN(f) && !math.IsInf(f, 0) {
		sec, frac := math.Modf(f)
		return time.Unix(int64(sec), int64(frac*1e9)), nil
	}
	return time.Time{}, fmt.Errorf("invalid time %q (RFC3339, unix seconds, or relative like -15m)", s)
}

// ParseLabels parses "name=value,name2=value2" selectors.
func ParseLabels(s string) ([]Label, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	out := make([]Label, 0, len(parts))
	for _, p := range parts {
		name, value, ok := strings.Cut(p, "=")
		if !ok || name == "" {
			return nil, fmt.Errorf("invalid label selector %q (want name=value,name2=value2)", p)
		}
		out = append(out, Label{Name: name, Value: value})
	}
	return out, nil
}

// Query selects a time range from one metric.
type Query struct {
	// Metric is the exact metric name (required).
	Metric string
	// Labels restricts to series carrying every given label pair;
	// series may have more.
	Labels []Label
	// FromMs/ToMs bound the range, inclusive, in Unix milliseconds.
	FromMs, ToMs int64
	// StepMs > 0 rolls samples up into buckets aligned to multiples of
	// StepMs; 0 returns raw samples.
	StepMs int64
	// Agg selects the bucket rollup ("" → mean). Ignored for raw.
	Agg Agg
}

// Point is one raw sample (Count==1, Min==Max==V) or one step rollup.
type Point struct {
	T     int64   `json:"t"`
	V     float64 `json:"v"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	Count int64   `json:"count"`
}

// SeriesResult is one matched series with its points in time order.
type SeriesResult struct {
	Meta   SeriesMeta `json:"series"`
	Points []Point    `json:"points"`
}

// Query evaluates q against the store. Results are sorted by series
// key; series with no samples in range are omitted.
func (s *Store) Query(q Query) ([]SeriesResult, error) {
	if q.Metric == "" {
		return nil, fmt.Errorf("tsdb: query needs a metric")
	}
	if q.ToMs < q.FromMs {
		return nil, fmt.Errorf("tsdb: query range ends (%d) before it starts (%d)", q.ToMs, q.FromMs)
	}
	if q.StepMs < 0 {
		return nil, fmt.Errorf("tsdb: negative step")
	}
	agg, err := ParseAgg(string(q.Agg))
	if err != nil {
		return nil, err
	}

	s.mu.RLock()
	matched := make([]*Series, 0, 4)
	for _, sr := range s.series {
		if sr.meta.Metric == q.Metric && labelsMatch(sr.meta.Labels, q.Labels) {
			matched = append(matched, sr)
		}
	}
	s.mu.RUnlock()
	sort.Slice(matched, func(i, j int) bool { return matched[i].key < matched[j].key })

	out := make([]SeriesResult, 0, len(matched))
	for _, sr := range matched {
		pts, err := sr.rangePoints(q.FromMs, q.ToMs, q.StepMs, agg)
		if err != nil {
			return nil, fmt.Errorf("series %s: %w", sr.key, err)
		}
		if len(pts) > 0 {
			out = append(out, SeriesResult{Meta: sr.meta, Points: pts})
		}
	}
	return out, nil
}

// labelsMatch reports whether every wanted pair appears in have (which
// is sorted by name).
func labelsMatch(have, want []Label) bool {
	for _, w := range want {
		found := false
		for _, h := range have {
			if h.Name == w.Name && h.Value == w.Value {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// rangePoints decodes the chunks overlapping [from,to] and aggregates.
func (sr *Series) rangePoints(from, to, step int64, agg Agg) ([]Point, error) {
	// Snapshot chunk references under the lock; the sealed data is
	// immutable and the head is copied so decoding runs lock-free.
	sr.mu.Lock()
	chunks := make([]memChunk, 0, len(sr.sealed)+1)
	for _, c := range sr.sealed {
		if c.maxT >= from && c.minT <= to {
			chunks = append(chunks, c)
		}
	}
	if sr.enc.Count() > 0 && sr.lastT >= from && sr.headMinT <= to {
		head := memChunk{minT: sr.headMinT, maxT: sr.lastT, count: sr.enc.Count(),
			data: append([]byte(nil), sr.enc.Bytes()...)}
		chunks = append(chunks, head)
	}
	sr.mu.Unlock()

	var b bucketer
	b.init(step, agg)
	for _, c := range chunks {
		it := NewIter(c.data)
		for it.Next() {
			t, v := it.At()
			if t < from || t > to {
				continue
			}
			b.add(t, v)
		}
		if err := it.Err(); err != nil {
			return nil, err
		}
	}
	return b.finish(), nil
}

// bucketer accumulates samples into raw points or step rollups.
type bucketer struct {
	step int64
	agg  Agg
	raw  []Point
	// Open bucket state: samples arrive in time order per series.
	open   bool
	bStart int64
	sum    float64
	minV   float64
	maxV   float64
	n      int64
	inc    float64 // rate: positive increase attributed to this bucket
	// prev spans buckets: a counter's increase between two samples is
	// charged to the later sample's bucket, so rate works even when a
	// bucket holds a single sample (step == scrape interval).
	havePrev bool
	prevV    float64
	out      []Point
}

func (b *bucketer) init(step int64, agg Agg) {
	b.step, b.agg = step, agg
}

func (b *bucketer) add(t int64, v float64) {
	if b.step <= 0 {
		b.raw = append(b.raw, Point{T: t, V: v, Min: v, Max: v, Count: 1})
		return
	}
	start := floorDiv(t, b.step) * b.step
	if !b.open || start != b.bStart {
		b.flush()
		b.open = true
		b.bStart = start
		b.sum, b.minV, b.maxV, b.n = 0, math.Inf(1), math.Inf(-1), 0
		b.inc = 0
	}
	if b.havePrev {
		if d := v - b.prevV; d >= 0 {
			b.inc += d
		} else {
			// Counter reset: count the post-reset level.
			b.inc += v
		}
	}
	b.sum += v
	if v < b.minV {
		b.minV = v
	}
	if v > b.maxV {
		b.maxV = v
	}
	b.n++
	b.havePrev = true
	b.prevV = v
}

func (b *bucketer) flush() {
	if !b.open || b.n == 0 {
		return
	}
	p := Point{T: b.bStart, Min: b.minV, Max: b.maxV, Count: b.n}
	switch b.agg {
	case AggMin:
		p.V = b.minV
	case AggMax:
		p.V = b.maxV
	case AggCount:
		p.V = float64(b.n)
	case AggRate:
		p.V = b.inc / (float64(b.step) / 1e3)
	default:
		p.V = b.sum / float64(b.n)
	}
	b.out = append(b.out, p)
	b.open = false
}

func (b *bucketer) finish() []Point {
	if b.step <= 0 {
		return b.raw
	}
	b.flush()
	return b.out
}
