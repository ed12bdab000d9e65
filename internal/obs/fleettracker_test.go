package obs

import (
	"fmt"
	"reflect"
	"sort"
	"sync"
	"testing"
)

// fleetEvent builds a completed decision event for device d.
func fleetEvent(dev string, missed bool, residFrac float64) *DecisionEvent {
	return &DecisionEvent{
		Workload:         "mpeg",
		Platform:         "odroid-a7",
		Device:           dev,
		Predicted:        true,
		PredictedExecSec: 0.010,
		ResidualSec:      residFrac * 0.010,
		ActualExecSec:    0.010 * (1 + residFrac),
		FreqKHz:          1_400_000,
		Done:             true,
		Missed:           missed,
	}
}

// TestFleetTrackerClassification: a device that misses constantly
// scores as an outlier attributed to misses; a drifting-but-hitting
// device lands on drift; a clean device stays healthy.
func TestFleetTrackerClassification(t *testing.T) {
	tr := NewFleetTracker(FleetConfig{MinJobs: 8})
	for i := 0; i < 200; i++ {
		tr.Emit(fleetEvent("good", false, 0.01))
		tr.Emit(fleetEvent("missy", true, 0.01))
		tr.Emit(fleetEvent("drifty", false, 0.9))
	}
	byDev := map[string]DeviceHealth{}
	for _, d := range tr.DeviceHealths() {
		byDev[d.Device] = d
	}
	if got := byDev["good"]; got.Class != ClassHealthy {
		t.Errorf("good: class %q score %.3f, want healthy", got.Class, got.Score)
	}
	if got := byDev["missy"]; got.Class != ClassOutlier || got.Attribution != "miss" {
		t.Errorf("missy: class %q attribution %q score %.3f, want outlier/miss",
			got.Class, got.Attribution, got.Score)
	}
	if got := byDev["drifty"]; got.Class == ClassHealthy || got.Attribution != "drift" {
		t.Errorf("drifty: class %q attribution %q score %.3f, want degraded-or-worse/drift",
			got.Class, got.Attribution, got.Score)
	}

	s := tr.Snapshot()
	if s.Devices != 3 {
		t.Fatalf("Devices = %d, want 3", s.Devices)
	}
	if s.Completed != 600 || s.Misses != 200 {
		t.Errorf("Completed/Misses = %d/%d, want 600/200", s.Completed, s.Misses)
	}
	if len(s.Worst) == 0 || s.Worst[0].Device != "missy" {
		t.Errorf("Worst[0] = %+v, want missy first", s.Worst)
	}
	if len(s.TopMiss) == 0 || s.TopMiss[0].Key != "missy" || s.TopMiss[0].Count != 200 {
		t.Errorf("TopMiss = %v, want missy=200 first", s.TopMiss)
	}
	if s.ResidualFrac.P99 < 0.5 {
		t.Errorf("ResidualFrac.P99 = %v, want ≥ 0.5 (drifty's 0.9 fraction)", s.ResidualFrac.P99)
	}
}

// TestFleetTrackerFreshGate: devices under MinJobs are reported fresh
// and excluded from the worst-devices ranking.
func TestFleetTrackerFreshGate(t *testing.T) {
	tr := NewFleetTracker(FleetConfig{MinJobs: 10})
	for i := 0; i < 3; i++ {
		tr.Emit(fleetEvent("young", true, 2.0))
	}
	s := tr.Snapshot()
	if s.Fresh != 1 || len(s.Worst) != 0 {
		t.Errorf("Fresh=%d Worst=%v, want fresh device excluded from ranking", s.Fresh, s.Worst)
	}
}

// TestFleetTrackerUnlabeledDevice: events without a Device label
// aggregate under the "-" placeholder rather than vanishing.
func TestFleetTrackerUnlabeledDevice(t *testing.T) {
	tr := NewFleetTracker(FleetConfig{})
	e := fleetEvent("", false, 0)
	e.Device = ""
	tr.Emit(e)
	all := tr.DeviceHealths()
	if len(all) != 1 || all[0].Device != deviceKey {
		t.Fatalf("DeviceHealths = %+v, want single %q entry", all, deviceKey)
	}
}

// TestFleetTrackerSLOFeed: completed events flow into the attached
// keyed SLO tracker under fleet/platform/workload keys.
func TestFleetTrackerSLOFeed(t *testing.T) {
	slo := NewSLOTracker(SLOConfig{Target: 0.01})
	tr := NewFleetTracker(FleetConfig{SLO: slo})
	for i := 0; i < 50; i++ {
		tr.Emit(fleetEvent("d0", i%2 == 0, 0))
	}
	for _, key := range []string{FleetKey, "platform:odroid-a7", "workload:mpeg"} {
		st, ok := slo.Status(key)
		if !ok || st.Jobs != 50 || st.Misses != 25 {
			t.Errorf("SLO key %q: %+v ok=%v, want 50 jobs / 25 misses", key, st, ok)
		}
	}
}

// TestSLOTrackerMaxKeys: beyond the key bound, new keys fold into the
// overflow window and totals stay accurate.
func TestSLOTrackerMaxKeys(t *testing.T) {
	tr := NewSLOTracker(SLOConfig{MaxKeys: 4})
	for i := 0; i < 20; i++ {
		tr.Observe(fmt.Sprintf("w%d", i), true)
	}
	snap := tr.Snapshot()
	// 4 distinct keys plus the overflow catch-all.
	if len(snap) != 5 {
		t.Fatalf("got %d keys %v, want 5 (4 + overflow)", len(snap), snap)
	}
	of, ok := tr.Status(OverflowKey)
	if !ok || of.Jobs != 16 {
		t.Errorf("overflow status = %+v ok=%v, want 16 folded jobs", of, ok)
	}
	// Existing keys keep observing normally at the bound.
	tr.Observe("w0", false)
	if st, _ := tr.Status("w0"); st.Jobs != 2 {
		t.Errorf("w0 jobs = %d, want 2", st.Jobs)
	}
}

// TestFleetTrackerRace: 32 concurrent writers emitting to overlapping
// devices while snapshots are taken. Run under -race in CI; also
// checks final totals so the tracker loses no events.
func TestFleetTrackerRace(t *testing.T) {
	const writers = 32
	const perWriter = 500
	tr := NewFleetTracker(FleetConfig{HistoryEvery: 64})
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				dev := fmt.Sprintf("dev-%03d", (w*7+i)%64)
				tr.Emit(fleetEvent(dev, i%10 == 0, float64(i%5)*0.05))
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		var lastDev int
		var lastDone uint64
		for i := 0; i < 20; i++ {
			_ = tr.Snapshot()
			_ = tr.DeviceHealths()
			dev, completed := tr.Counts()
			if dev < lastDev || completed < lastDone || dev > 64 || completed > writers*perWriter {
				t.Errorf("Counts = %d devices, %d completed after %d, %d", dev, completed, lastDev, lastDone)
			}
			lastDev, lastDone = dev, completed
		}
	}()
	wg.Wait()
	<-done

	s := tr.Snapshot()
	if want := uint64(writers * perWriter); s.Events != want || s.Completed != want {
		t.Errorf("Events/Completed = %d/%d, want %d", s.Events, s.Completed, want)
	}
	if s.Devices != 64 {
		t.Errorf("Devices = %d, want 64", s.Devices)
	}
	if dev, completed := tr.Counts(); dev != s.Devices || completed != s.Completed {
		t.Errorf("Counts = %d, %d; Snapshot has %d, %d", dev, completed, s.Devices, s.Completed)
	}
	var jobs int64
	for _, d := range tr.DeviceHealths() {
		jobs += d.Jobs
	}
	if jobs != writers*perWriter {
		t.Errorf("summed device jobs = %d, want %d", jobs, writers*perWriter)
	}
	if len(s.History) == 0 {
		t.Errorf("history empty after %d completed jobs with HistoryEvery=64", s.Completed)
	}
}

// TestFleetTrackerDeterministicSnapshot: the same serial feed always
// produces the same snapshot (device ordering, quantiles, heavy
// hitters) — the property fleet replay reports rely on.
func TestFleetTrackerDeterministicSnapshot(t *testing.T) {
	build := func() FleetStatus {
		tr := NewFleetTracker(FleetConfig{HistoryEvery: 100})
		for i := 0; i < 2000; i++ {
			dev := fmt.Sprintf("dev-%02d", i%40)
			tr.Emit(fleetEvent(dev, i%17 == 0, float64(i%7)*0.03))
		}
		return tr.Snapshot()
	}
	a, b := build(), build()
	if fmt.Sprintf("%+v", a) != fmt.Sprintf("%+v", b) {
		t.Fatalf("snapshots differ across identical feeds:\n%+v\nvs\n%+v", a, b)
	}
}

// TestFleetTrackerWorstMatchesFullSort: Snapshot's top-K equals the
// reference ranking — DeviceHealths without fresh devices, fully
// sorted by score descending then device ascending, truncated — on a
// feed where most devices tie on score with several others.
func TestFleetTrackerWorstMatchesFullSort(t *testing.T) {
	// 300 devices in four behaviours (miss period, 0 = never; residual
	// fraction), so each score is shared by dozens of devices. They are
	// emitted in an order unrelated to their IDs, and every seventh
	// device stays fresh.
	kinds := []struct {
		missEvery int
		resid     float64
	}{{0, 0.01}, {2, 0.01}, {0, 0.6}, {3, 0.3}}
	feed := func(tr *FleetTracker) {
		for j := 0; j < 12; j++ {
			for i := 0; i < 300; i++ {
				d := (i * 113) % 300
				if d%7 == 0 && j >= 3 {
					continue
				}
				k := kinds[d%4]
				missed := k.missEvery > 0 && j%k.missEvery == 0
				tr.Emit(fleetEvent(fmt.Sprintf("dev-%03d", d), missed, k.resid))
			}
		}
	}
	for _, topK := range []int{1, 10, 1000} {
		t.Run(fmt.Sprintf("topk=%d", topK), func(t *testing.T) {
			tr := NewFleetTracker(FleetConfig{MinJobs: 8, TopK: topK})
			feed(tr)
			var want []DeviceHealth
			for _, d := range tr.DeviceHealths() {
				if d.Class != ClassFresh {
					want = append(want, d)
				}
			}
			scores := map[float64]int{}
			for _, d := range want {
				scores[d.Score]++
			}
			if len(want) != 257 || len(scores) > 8 {
				t.Fatalf("feed gave %d classified devices over %d scores, want 257 over few", len(want), len(scores))
			}
			sort.SliceStable(want, func(i, j int) bool {
				if want[i].Score != want[j].Score {
					return want[i].Score > want[j].Score
				}
				return want[i].Device < want[j].Device
			})
			if len(want) > topK {
				want = want[:topK]
			}
			s := tr.Snapshot()
			if !reflect.DeepEqual(s.Worst, want) {
				t.Errorf("Worst differs from the full sort:\n got %+v\nwant %+v", s.Worst, want)
			}
			if dev, completed := tr.Counts(); dev != s.Devices || completed != s.Completed {
				t.Errorf("Counts = %d, %d; Snapshot has %d, %d", dev, completed, s.Devices, s.Completed)
			}
		})
	}
}
