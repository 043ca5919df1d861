// Package par is the one worker pool. For runs a loop body on the
// calling goroutine plus helper goroutines borrowed from one
// process-wide CPU budget, so parallel loops may nest freely.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// helpers counts the helper goroutines running in every For call of the
// process. Together they hold at most GOMAXPROCS−1 CPUs; the callers
// hold the rest.
var helpers atomic.Int64

// borrow takes one helper from the process-wide budget without blocking.
// GOMAXPROCS is read on every attempt because a process may raise it
// after start-up.
func borrow() bool {
	for {
		h := helpers.Load()
		if h >= int64(runtime.GOMAXPROCS(0)-1) {
			return false
		}
		if helpers.CompareAndSwap(h, h+1) {
			return true
		}
	}
}

// For runs fn(i) for every i in [0, n) and returns the error of the
// lowest failing index, or nil.
//
// The calling goroutine always runs fn itself. Each time a goroutine
// claims an index while unclaimed ones remain, it tries once, without
// blocking, to start one more goroutine with a helper borrowed from the
// process-wide budget. limit caps the goroutines of one call, the
// caller included; limit ≤ 0 means no per-call cap. No acquire blocks,
// so nested calls cannot deadlock, and at most the callers plus
// GOMAXPROCS−1 helpers run fn at once.
//
// Indices are claimed in increasing order and none after a failure, so
// every index below a failing one has run to completion: the returned
// error is the one a sequential loop would return. Callers that write
// results into index i of a preallocated slice get output independent of
// scheduling.
func For(limit, n int, fn func(i int) error) error {
	var (
		next    atomic.Int64 // the next index to claim
		running atomic.Int64 // goroutines of this call, caller included
		failed  atomic.Bool
		wg      sync.WaitGroup

		mu    sync.Mutex
		errAt = n
		err   error
	)
	running.Store(1)

	var work func()
	// spawn starts one helper if the per-call limit and the budget allow.
	// Checking the limit and counting the helper is one CAS, so racing
	// claimers cannot overshoot it.
	spawn := func() {
		for {
			r := running.Load()
			if limit > 0 && r >= int64(limit) {
				return
			}
			if running.CompareAndSwap(r, r+1) {
				break
			}
		}
		if !borrow() {
			running.Add(-1)
			return
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer helpers.Add(-1)
			work()
		}()
	}
	work = func() {
		for !failed.Load() {
			i := int(next.Add(1) - 1)
			if i >= n {
				return
			}
			if next.Load() < int64(n) {
				spawn()
			}
			if e := fn(i); e != nil {
				mu.Lock()
				if i < errAt {
					errAt, err = i, e
				}
				mu.Unlock()
				failed.Store(true)
			}
		}
	}
	work()
	wg.Wait()
	return err
}
