package ordered

import (
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"
)

// TestCommitsAscendingAndGapFree: whatever order the workers finish
// in, commit sees every index exactly once, ascending, with the value
// its work call produced.
func TestCommitsAscendingAndGapFree(t *testing.T) {
	for _, c := range []struct{ n, workers int }{
		{200, 1}, {200, 2}, {200, 8},
		{3, 8}, // fewer items than workers
		{1, 0}, // default worker count
		{50, -1},
	} {
		t.Run(fmt.Sprintf("n=%d/workers=%d", c.n, c.workers), func(t *testing.T) {
			delays := rand.New(rand.NewSource(int64(c.n*31 + c.workers)))
			sleeps := make([]time.Duration, c.n)
			for i := range sleeps {
				sleeps[i] = time.Duration(delays.Intn(200)) * time.Microsecond
			}
			var got []int
			err := Run(c.n, c.workers, func(i int) (int, error) {
				time.Sleep(sleeps[i])
				return i * i, nil
			}, func(i, r int) {
				if r != i*i {
					t.Errorf("commit(%d) got %d, want %d", i, r, i*i)
				}
				got = append(got, i)
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != c.n {
				t.Fatalf("committed %d of %d", len(got), c.n)
			}
			for i, v := range got {
				if v != i {
					t.Fatalf("commit %d was index %d: %v", i, v, got)
				}
			}
		})
	}
}

func TestEmpty(t *testing.T) {
	err := Run(0, 4, func(int) (int, error) {
		t.Error("work called for n = 0")
		return 0, nil
	}, func(int, int) { t.Error("commit called for n = 0") })
	if err != nil {
		t.Fatal(err)
	}
}

// TestLowestFailingIndexWins: two indices fail and the higher one
// fails first; the error returned is still the lower one's, as a
// serial loop would report.
func TestLowestFailingIndexWins(t *testing.T) {
	errLow, errHigh := errors.New("low"), errors.New("high")
	for _, workers := range []int{2, 4, 8} {
		highDone := make(chan struct{})
		err := Run(10, workers, func(i int) (int, error) {
			switch i {
			case 1:
				<-highDone // fail only after index 5 has failed
				return 0, errLow
			case 5:
				close(highDone)
				return 0, errHigh
			}
			return i, nil
		}, func(i, _ int) {
			if i >= 1 {
				t.Errorf("workers=%d: committed index %d past the failure", workers, i)
			}
		})
		if !errors.Is(err, errLow) {
			t.Fatalf("workers=%d: err = %v, want %v", workers, err, errLow)
		}
	}
}

// TestFailureStopsHandingOutWork: after an early failure the pool
// stops claiming indices, so far fewer than n work calls run.
func TestFailureStopsHandingOutWork(t *testing.T) {
	const n = 10000
	boom := errors.New("boom")
	var calls atomic.Int64
	err := Run(n, 4, func(i int) (int, error) {
		calls.Add(1)
		if i == 0 {
			return 0, boom
		}
		time.Sleep(10 * time.Microsecond)
		return i, nil
	}, func(int, int) {})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	if c := calls.Load(); c > n/10 {
		t.Fatalf("%d of %d work calls ran after the first failed", c, n)
	}
}
