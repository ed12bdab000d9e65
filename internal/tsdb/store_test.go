package tsdb

import (
	"math"
	"sync"
	"testing"
	"time"
)

func memStore(t *testing.T, opts Options) *Store {
	t.Helper()
	s, err := Open(opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() {
		if err := s.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	})
	return s
}

func TestSeriesIdentity(t *testing.T) {
	s := memStore(t, Options{Retention: -1})
	a := s.Series("m", Label{Name: "b", Value: "2"}, Label{Name: "a", Value: "1"})
	b := s.Series("m", Label{Name: "a", Value: "1"}, Label{Name: "b", Value: "2"})
	if a != b {
		t.Fatal("label order must not split a series")
	}
	if got, want := a.Meta().Key(), "m{a=1,b=2}"; got != want {
		t.Fatalf("key %q, want %q", got, want)
	}
	if c := s.Series("m"); c == a {
		t.Fatal("bare metric must be a distinct series from its labeled variants")
	}
}

func TestAppendDropsRegressions(t *testing.T) {
	s := memStore(t, Options{Retention: -1})
	sr := s.Series("m")
	if !sr.Append(1000, 1) || !sr.Append(2000, 2) {
		t.Fatal("in-order appends rejected")
	}
	if sr.Append(2000, 9) {
		t.Fatal("duplicate timestamp accepted")
	}
	if sr.Append(1500, 9) {
		t.Fatal("regressed timestamp accepted")
	}
	if !sr.Append(3000, 3) {
		t.Fatal("append after a drop rejected")
	}
	res, err := s.Query(Query{Metric: "m", FromMs: 0, ToMs: 10_000})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || len(res[0].Points) != 3 {
		t.Fatalf("got %+v, want 3 raw points", res)
	}
	for i, want := range []float64{1, 2, 3} {
		if res[0].Points[i].V != want {
			t.Fatalf("point %d: %v, want %v", i, res[0].Points[i].V, want)
		}
	}
}

func TestQueryLabelSubsetMatch(t *testing.T) {
	s := memStore(t, Options{Retention: -1})
	s.Series("req", Label{Name: "route", Value: "a"}, Label{Name: "code", Value: "200"}).Append(1000, 1)
	s.Series("req", Label{Name: "route", Value: "a"}, Label{Name: "code", Value: "500"}).Append(1000, 2)
	s.Series("req", Label{Name: "route", Value: "b"}, Label{Name: "code", Value: "200"}).Append(1000, 3)

	res, err := s.Query(Query{Metric: "req", Labels: []Label{{Name: "route", Value: "a"}}, FromMs: 0, ToMs: 2000})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("route=a matched %d series, want 2", len(res))
	}
	// Sorted by series key: code=200 before code=500.
	if res[0].Points[0].V != 1 || res[1].Points[0].V != 2 {
		t.Fatalf("unexpected order/values: %+v", res)
	}
	res, err = s.Query(Query{Metric: "req",
		Labels: []Label{{Name: "route", Value: "a"}, {Name: "code", Value: "500"}}, FromMs: 0, ToMs: 2000})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].Points[0].V != 2 {
		t.Fatalf("exact match failed: %+v", res)
	}
	if res, _ = s.Query(Query{Metric: "req", Labels: []Label{{Name: "route", Value: "z"}}, FromMs: 0, ToMs: 2000}); len(res) != 0 {
		t.Fatalf("route=z matched %d series", len(res))
	}
}

func TestQueryValidation(t *testing.T) {
	s := memStore(t, Options{Retention: -1})
	if _, err := s.Query(Query{FromMs: 0, ToMs: 1}); err == nil {
		t.Fatal("empty metric accepted")
	}
	if _, err := s.Query(Query{Metric: "m", FromMs: 10, ToMs: 5}); err == nil {
		t.Fatal("inverted range accepted")
	}
	if _, err := s.Query(Query{Metric: "m", StepMs: -1, ToMs: 1}); err == nil {
		t.Fatal("negative step accepted")
	}
	if _, err := s.Query(Query{Metric: "m", ToMs: 1, Agg: "median"}); err == nil {
		t.Fatal("unknown agg accepted")
	}
}

func TestStepRollups(t *testing.T) {
	s := memStore(t, Options{Retention: -1})
	sr := s.Series("m")
	// Two 10s buckets: [0,10s) holds 1,3,5 and [10s,20s) holds 7.
	for i, v := range []float64{1, 3, 5, 7} {
		sr.Append(int64(i)*4000+1000, v)
	}
	cases := []struct {
		agg  Agg
		want []float64
	}{
		{AggMean, []float64{3, 7}},
		{AggMin, []float64{1, 7}},
		{AggMax, []float64{5, 7}},
		{AggCount, []float64{3, 1}},
	}
	for _, c := range cases {
		res, err := s.Query(Query{Metric: "m", FromMs: 0, ToMs: 30_000, StepMs: 10_000, Agg: c.agg})
		if err != nil {
			t.Fatalf("%s: %v", c.agg, err)
		}
		pts := res[0].Points
		if len(pts) != len(c.want) {
			t.Fatalf("%s: %d buckets, want %d", c.agg, len(pts), len(c.want))
		}
		for i := range pts {
			if pts[i].V != c.want[i] {
				t.Fatalf("%s bucket %d: %v, want %v", c.agg, i, pts[i].V, c.want[i])
			}
			if pts[i].T != int64(i)*10_000 {
				t.Fatalf("%s bucket %d not step-aligned: T=%d", c.agg, i, pts[i].T)
			}
		}
	}
}

func TestRateAcrossBucketsAndResets(t *testing.T) {
	s := memStore(t, Options{Retention: -1})
	sr := s.Series("c")
	// One sample per 10s bucket: 100, 160, then a reset to 30.
	sr.Append(5_000, 100)
	sr.Append(15_000, 160)
	sr.Append(25_000, 30)
	res, err := s.Query(Query{Metric: "c", FromMs: 0, ToMs: 30_000, StepMs: 10_000, Agg: AggRate})
	if err != nil {
		t.Fatal(err)
	}
	pts := res[0].Points
	if len(pts) != 3 {
		t.Fatalf("%d buckets, want 3", len(pts))
	}
	// First bucket has no previous sample → 0 increase; second gains 60
	// over 10s; the reset bucket clamps to the post-reset level (30).
	for i, want := range []float64{0, 6, 3} {
		if math.Abs(pts[i].V-want) > 1e-9 {
			t.Fatalf("rate bucket %d: %v, want %v", i, pts[i].V, want)
		}
	}
}

func TestQueryRangeClipsAndSpansChunks(t *testing.T) {
	// Tiny chunks force many seals so the range query stitches sealed
	// chunks and the open head together.
	s := memStore(t, Options{Retention: -1, ChunkBytes: MinCap})
	sr := s.Series("m")
	for i := 0; i < 200; i++ {
		sr.Append(int64(i)*1000, float64(i))
	}
	res, err := s.Query(Query{Metric: "m", FromMs: 50_000, ToMs: 149_000})
	if err != nil {
		t.Fatal(err)
	}
	pts := res[0].Points
	if len(pts) != 100 {
		t.Fatalf("%d points, want 100", len(pts))
	}
	if pts[0].T != 50_000 || pts[len(pts)-1].T != 149_000 {
		t.Fatalf("range not clipped: [%d, %d]", pts[0].T, pts[len(pts)-1].T)
	}
	if st := s.Stats(); st.SealedChunks == 0 {
		t.Fatal("MinCap chunks never sealed")
	}
}

func TestBlockRotationSealsAtBoundary(t *testing.T) {
	s := memStore(t, Options{Retention: -1, BlockDur: 10 * time.Second})
	sr := s.Series("m")
	sr.Append(1_000, 1)
	sr.Append(9_000, 2)
	if st := s.Stats(); st.SealedChunks != 0 {
		t.Fatalf("sealed %d chunks inside one block", st.SealedChunks)
	}
	sr.Append(11_000, 3) // crosses the 10s boundary
	if st := s.Stats(); st.SealedChunks != 1 {
		t.Fatalf("sealed %d chunks after crossing a block boundary, want 1", st.SealedChunks)
	}
	res, err := s.Query(Query{Metric: "m", FromMs: 0, ToMs: 20_000})
	if err != nil {
		t.Fatal(err)
	}
	if len(res[0].Points) != 3 {
		t.Fatalf("rotation lost samples: %+v", res[0].Points)
	}
}

func TestRetentionPrunesOldChunks(t *testing.T) {
	s := memStore(t, Options{Retention: time.Minute, BlockDur: 10 * time.Second})
	sr := s.Series("m")
	for i := int64(0); i < 30; i++ {
		sr.Append(i*10_000, float64(i)) // one sample per block, 5 minutes total
	}
	res, err := s.Query(Query{Metric: "m", FromMs: 0, ToMs: 10 * 60_000})
	if err != nil {
		t.Fatal(err)
	}
	pts := res[0].Points
	if len(pts) == 30 {
		t.Fatal("retention pruned nothing")
	}
	// Everything younger than the minute before the newest sample must
	// survive (pruning keys off chunk maxT, so a bit extra may remain).
	last := pts[len(pts)-1].T
	if last != 290_000 {
		t.Fatalf("newest sample pruned: %d", last)
	}
	if first := pts[0].T; first < 290_000-90_000 {
		t.Fatalf("stale sample %d survived a 60s retention", first)
	}
}

func TestSeriesListSorted(t *testing.T) {
	s := memStore(t, Options{Retention: -1})
	s.Series("b").Append(1, 1)
	s.Series("a", Label{Name: "x", Value: "1"}).Append(1, 1)
	s.Series("a").Append(1, 1)
	list := s.SeriesList()
	if len(list) != 3 {
		t.Fatalf("%d series, want 3", len(list))
	}
	want := []string{"a", "a{x=1}", "b"}
	for i, m := range list {
		if m.Key() != want[i] {
			t.Fatalf("list[%d] = %q, want %q", i, m.Key(), want[i])
		}
	}
}

func TestConcurrentAppendQuery(t *testing.T) {
	s := memStore(t, Options{Retention: -1, ChunkBytes: MinCap * 2, BlockDur: time.Second})
	const (
		writers = 4
		samples = 2000
	)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		sr := s.Series("m", Label{Name: "w", Value: string(rune('a' + w))})
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < samples; i++ {
				sr.Append(int64(i)*250, float64(i))
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for {
		if _, err := s.Query(Query{Metric: "m", FromMs: 0, ToMs: int64(samples) * 250, StepMs: 5000, Agg: AggMax}); err != nil {
			t.Errorf("query during appends: %v", err)
			break
		}
		s.Stats()
		s.SeriesList()
		select {
		case <-done:
			res, err := s.Query(Query{Metric: "m", FromMs: 0, ToMs: int64(samples) * 250})
			if err != nil {
				t.Fatal(err)
			}
			if len(res) != writers {
				t.Fatalf("%d series, want %d", len(res), writers)
			}
			for _, sr := range res {
				if len(sr.Points) != samples {
					t.Fatalf("series %s: %d samples, want %d", sr.Meta.Key(), len(sr.Points), samples)
				}
			}
			return
		default:
		}
	}
}

func TestStatsBytesPerSample(t *testing.T) {
	s := memStore(t, Options{Retention: -1})
	sr := s.Series("m")
	for i := 0; i < 1000; i++ {
		sr.Append(int64(i)*5000, 7) // constant value, steady cadence
	}
	st := s.Stats()
	if st.Samples != 1000 || st.Series != 1 {
		t.Fatalf("stats %+v", st)
	}
	if st.BytesPerSamp > 1 {
		t.Fatalf("constant series cost %.2f B/sample, want < 1", st.BytesPerSamp)
	}
}

func TestFloorDiv(t *testing.T) {
	cases := []struct{ a, b, want int64 }{
		{7, 3, 2}, {-7, 3, -3}, {6, 3, 2}, {-6, 3, -2}, {0, 5, 0}, {-1, 10, -1},
	}
	for _, c := range cases {
		if got := floorDiv(c.a, c.b); got != c.want {
			t.Fatalf("floorDiv(%d, %d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestParseTime(t *testing.T) {
	now := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	cases := []struct {
		in   string
		want time.Time
	}{
		{"", time.Time{}},
		{"now", now},
		{"-15m", now.Add(-15 * time.Minute)},
		{"2026-08-08T11:00:00Z", now.Add(-time.Hour)},
		{"1786150800", time.Unix(1786150800, 0)},
	}
	for _, c := range cases {
		got, err := ParseTime(c.in, now)
		if err != nil {
			t.Fatalf("%q: %v", c.in, err)
		}
		if !got.Equal(c.want) {
			t.Fatalf("%q: %v, want %v", c.in, got, c.want)
		}
	}
	if _, err := ParseTime("not-a-time", now); err == nil {
		t.Fatal("garbage accepted")
	}
}
