// Package ordered runs independent work items on a bounded worker pool
// and hands their results to one commit function in index order. Fleet
// simulation and fleet replay both use it, so every order-sensitive
// step — float sums, histogram observations, trace emission — happens
// in an order fixed by the input alone, and their output is
// byte-identical at any worker count.
package ordered

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Run calls work(i) for every i in [0, n) on up to workers goroutines
// (≤ 0 selects GOMAXPROCS; never more than n) and commit(i, r) for each
// result in ascending i on the caller's goroutine. Once a work call
// fails, no further work is handed out and no further commits run; Run
// then returns the error of the lowest failing index, which — since
// indices are handed out in order — is the one a serial loop would
// have hit first.
func Run[R any](n, workers int, work func(i int) (R, error), commit func(i int, r R)) error {
	if n <= 0 {
		return nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, n)

	type result struct {
		i   int
		r   R
		err error
	}
	var next atomic.Int64
	var failed atomic.Bool
	// One slot per worker lets each finish an item while the committer
	// is busy, without letting finished work pile up in the channel.
	results := make(chan result, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !failed.Load() {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				r, err := work(i)
				if err != nil {
					failed.Store(true)
				}
				results <- result{i, r, err}
			}
		}()
	}
	go func() {
		wg.Wait()
		close(results)
	}()

	// Reorder buffer: results that finished ahead of the next index to
	// commit wait here.
	pending := make(map[int]R, workers)
	committed := 0
	errIdx := n
	var firstErr error
	for res := range results {
		if res.err != nil {
			if res.i < errIdx {
				errIdx, firstErr = res.i, res.err
			}
			continue
		}
		if firstErr != nil {
			continue
		}
		pending[res.i] = res.r
		for {
			r, ok := pending[committed]
			if !ok {
				break
			}
			delete(pending, committed)
			commit(committed, r)
			committed++
		}
	}
	if firstErr != nil {
		return firstErr
	}
	if committed != n {
		return fmt.Errorf("ordered: committed %d of %d items", committed, n)
	}
	return nil
}
