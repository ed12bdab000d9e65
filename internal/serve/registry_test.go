package serve

import (
	"context"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/platform"
)

// Concurrent train requests for the same model must collapse onto one
// build (single-flight): while the lone worker is busy with a decoy
// build, 16 goroutines ask for sha; exactly one sha build runs, and
// every caller observes the same ready model.
func TestTrainSingleFlight(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model")
	}
	var shaBuilds int64
	release := make(chan struct{})
	plat := platform.ODROIDXU3A7()
	reg, err := NewRegistry(RegistryOptions{
		Plat:    plat,
		Switch:  platform.MeasureSwitchTable(plat, 50, 0.95, 1),
		Workers: 1,
		Observe: func(name string, _ float64, _ error) {
			switch name {
			case "sha":
				atomic.AddInt64(&shaBuilds, 1)
			case "ldecode":
				<-release
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()

	// Occupy the only worker so the sha flight stays pending while all
	// callers arrive: the decoy build's completion hook holds the
	// worker until every caller has its flight, however the callers
	// are scheduled.
	if _, _, err := reg.Train("ldecode", TrainConfig{Seed: 1}); err != nil {
		t.Fatal(err)
	}

	const callers = 16
	tc := TrainConfig{ProfileJobs: 60, Seed: 7}
	var wg, joined sync.WaitGroup
	joined.Add(callers)
	statuses := make([]ModelStatus, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			f, _, err := reg.Train("sha", tc)
			joined.Done()
			if err != nil {
				t.Error(err)
				return
			}
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			st, ok := f.Wait(ctx)
			if !ok {
				t.Error("build did not finish")
				return
			}
			statuses[i] = st
		}(i)
	}
	joined.Wait()
	close(release)
	wg.Wait()
	if n := atomic.LoadInt64(&shaBuilds); n != 1 {
		t.Fatalf("%d sha builds ran for %d concurrent train requests, want 1", n, callers)
	}
	for i, st := range statuses {
		if st.State != StateReady {
			t.Fatalf("caller %d saw state %q: %s", i, st.State, st.Error)
		}
	}
	if _, err := reg.Get("sha"); err != nil {
		t.Fatal(err)
	}
}

// A trained model persists to the data dir and a fresh registry serves
// it straight from disk.
func TestPersistenceRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model")
	}
	dir := t.TempDir()
	plat := platform.ODROIDXU3A7()
	sw := platform.MeasureSwitchTable(plat, 50, 0.95, 1)
	reg, err := NewRegistry(RegistryOptions{Dir: dir, Plat: plat, Switch: sw})
	if err != nil {
		t.Fatal(err)
	}
	f, _, err := reg.Train("sha", TrainConfig{ProfileJobs: 60, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if st, ok := f.Wait(ctx); !ok || st.State != StateReady {
		t.Fatalf("train: %+v ok=%v", st, ok)
	}
	// Close drains the pool and completes persistence.
	reg.Close()

	reg2, err := NewRegistry(RegistryOptions{Dir: dir, Plat: plat, Switch: sw})
	if err != nil {
		t.Fatal(err)
	}
	defer reg2.Close()
	st, ok := reg2.Status("sha")
	if !ok || st.State != StateReady || st.Source != "disk" {
		t.Fatalf("restored status: %+v ok=%v", st, ok)
	}
	if _, err := reg2.Get("sha"); err != nil {
		t.Fatal(err)
	}
}

func TestTrainUnknownWorkloadFailsFast(t *testing.T) {
	reg, err := NewRegistry(RegistryOptions{
		Plat:   platform.ODROIDXU3A7(),
		Switch: platform.MeasureSwitchTable(platform.ODROIDXU3A7(), 50, 0.95, 1),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	if _, _, err := reg.Train("bogus", TrainConfig{}); err == nil {
		t.Fatal("unknown workload accepted")
	} else if !strings.Contains(err.Error(), "unknown benchmark") {
		t.Fatalf("unexpected error: %v", err)
	}
	if _, err := reg.Get("missing"); err == nil {
		t.Fatal("Get on missing model succeeded")
	}
}

// After Close the registry refuses new builds but already-queued
// builds have drained.
func TestCloseDrainsAndRefuses(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model")
	}
	plat := platform.ODROIDXU3A7()
	reg, err := NewRegistry(RegistryOptions{
		Plat:    plat,
		Switch:  platform.MeasureSwitchTable(plat, 50, 0.95, 1),
		Workers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	f, _, err := reg.Train("sha", TrainConfig{ProfileJobs: 60, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	reg.Close()
	// The queued build must have completed during Close.
	select {
	case <-f.done:
	default:
		t.Fatal("Close returned before the queued build drained")
	}
	if f.status.State != StateReady {
		t.Fatalf("drained build state %q: %s", f.status.State, f.status.Error)
	}
	if _, _, err := reg.Train("sha", TrainConfig{}); err != ErrClosed {
		t.Fatalf("Train after Close: %v, want ErrClosed", err)
	}
}
