package serve

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/tsdb"
)

func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// newHistoryStack builds a server wired to an in-memory telemetry
// store seeded with a few minutes of samples ending at now.
func newHistoryStack(t *testing.T) (*httptest.Server, *tsdb.Store) {
	t.Helper()
	plat := platform.ODROIDXU3A7()
	sw := platform.MeasureSwitchTable(plat, 500, 0.95, testSeed)
	reg, err := NewRegistry(RegistryOptions{Dir: t.TempDir(), Plat: plat, Switch: sw, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(reg.Close)
	store, err := tsdb.Open(tsdb.Options{Retention: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	srv := NewServer(reg, ServerOptions{
		History:     store,
		EnableDebug: true,
		Fleet:       obs.NewFleetTracker(obs.FleetConfig{}),
	})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	now := time.Now().UnixMilli()
	sr := store.Series("test_metric", tsdb.Label{Name: "route", Value: "a"})
	for i := int64(0); i < 120; i++ {
		sr.Append(now-5*60_000+i*1000, float64(i))
	}
	return ts, store
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	return resp.StatusCode
}

func TestQueryEndpointDisabled(t *testing.T) {
	_, ts, _, _ := newTestStack(t, t.TempDir())
	var er ErrorResponse
	if code := getJSON(t, ts.URL+"/v1/query?metric=x", &er); code != http.StatusNotFound {
		t.Fatalf("HTTP %d, want 404", code)
	}
	if !strings.Contains(er.Error, "-tsdb-scrape") {
		t.Fatalf("error %q does not point at the flag", er.Error)
	}
}

func TestQueryEndpointSeriesList(t *testing.T) {
	ts, _ := newHistoryStack(t)
	var list SeriesListResponse
	if code := getJSON(t, ts.URL+"/v1/query", &list); code != http.StatusOK {
		t.Fatalf("HTTP %d", code)
	}
	if len(list.Series) != 1 || list.Series[0].Key() != "test_metric{route=a}" {
		t.Fatalf("series list %+v", list.Series)
	}
}

func TestQueryEndpointRange(t *testing.T) {
	ts, _ := newHistoryStack(t)
	var qr QueryResponse
	code := getJSON(t, ts.URL+"/v1/query?metric=test_metric&labels=route=a&from=-10m&step=30s&agg=max", &qr)
	if code != http.StatusOK {
		t.Fatalf("HTTP %d", code)
	}
	if len(qr.Series) != 1 {
		t.Fatalf("%d series", len(qr.Series))
	}
	pts := qr.Series[0].Points
	if len(pts) < 3 || len(pts) > 11 {
		t.Fatalf("%d buckets from 2 minutes of data at 30s step", len(pts))
	}
	if qr.Agg != "max" || qr.StepMs != 30_000 {
		t.Fatalf("echoed range %+v", qr)
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].V <= pts[i-1].V {
			t.Fatalf("max of a ramp must increase: %+v", pts)
		}
	}

	// Raw query over everything.
	qr = QueryResponse{}
	getJSON(t, ts.URL+"/v1/query?metric=test_metric&from=-30m", &qr)
	if len(qr.Series) != 1 || len(qr.Series[0].Points) != 120 {
		t.Fatalf("raw query returned %+v", qr)
	}

	// No match → empty array, not null.
	qr = QueryResponse{Series: []tsdb.SeriesResult{{}}}
	getJSON(t, ts.URL+"/v1/query?metric=test_metric&labels=route=zzz", &qr)
	if qr.Series == nil || len(qr.Series) != 0 {
		t.Fatalf("no-match query returned %+v", qr.Series)
	}
}

func TestQueryEndpointBadInputs(t *testing.T) {
	ts, _ := newHistoryStack(t)
	for _, q := range []string{
		"metric=m&from=yesterday",
		"metric=m&to=tomorrow",
		"metric=m&step=-5s",
		"metric=m&step=banana",
		"metric=m&labels=novalue",
		"metric=m&agg=median",
		"metric=m&from=-100000h&step=1ms", // too many buckets
	} {
		var er ErrorResponse
		if code := getJSON(t, ts.URL+"/v1/query?"+q, &er); code != http.StatusBadRequest {
			t.Fatalf("?%s: HTTP %d, want 400 (err %q)", q, code, er.Error)
		}
		if er.Error == "" {
			t.Fatalf("?%s: empty error body", q)
		}
	}
}

func TestDashWindowHistory(t *testing.T) {
	ts, _ := newHistoryStack(t)
	resp, err := http.Get(ts.URL + "/debug/dash?window=15m")
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("?window=15m: HTTP %d", resp.StatusCode)
	}
	if !strings.Contains(body, "History") {
		t.Fatal("missing history section")
	}
	// The window selector marks the active window and links the rest.
	if !strings.Contains(body, "<strong>15m</strong>") {
		t.Fatal("does not mark the active window")
	}
	if !strings.Contains(body, "?window=1h") {
		t.Fatal("does not link other windows")
	}

	resp, err = http.Get(ts.URL + "/debug/dash?window=2d")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("?window=2d: HTTP %d, want 400", resp.StatusCode)
	}
}

func TestDashWindowChartsRenderFromStore(t *testing.T) {
	ts, store := newHistoryStack(t)
	// Feed one of the dashboard's own panels so a chart materializes.
	now := time.Now().UnixMilli()
	sr := store.Series("go_goroutines")
	for i := int64(0); i < 60; i++ {
		sr.Append(now-10*60_000+i*5000, 8+float64(i%3))
	}
	resp, err := http.Get(ts.URL + "/debug/dash?window=15m")
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, resp)
	if !strings.Contains(body, "tschart") {
		t.Fatal("no time-series chart rendered from stored history")
	}
	if !strings.Contains(body, "class=\"axis") {
		t.Fatal("chart missing axis labels")
	}
}
