package par

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strconv"
	"sync/atomic"
	"testing"
	"time"
)

// withProcs runs the test at the given GOMAXPROCS, so helpers really run
// concurrently even on a one-CPU machine.
func withProcs(t *testing.T, n int) {
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// goid returns the current goroutine's id, parsed from its stack header.
func goid() uint64 {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	buf = bytes.TrimPrefix(buf, []byte("goroutine "))
	id, err := strconv.ParseUint(string(buf[:bytes.IndexByte(buf, ' ')]), 10, 64)
	if err != nil {
		panic(err)
	}
	return id
}

// peak tracks the largest number of concurrent enter/exit pairs.
type peak struct{ cur, max atomic.Int64 }

func (p *peak) enter() {
	c := p.cur.Add(1)
	for {
		m := p.max.Load()
		if c <= m || p.max.CompareAndSwap(m, c) {
			return
		}
	}
}

func (p *peak) exit() { p.cur.Add(-1) }

// checkReleased asserts that a finished call returned every helper to the
// budget and left no goroutine behind.
func checkReleased(t *testing.T, baseline int) {
	t.Helper()
	if h := helpers.Load(); h != 0 {
		t.Fatalf("%d helpers still borrowed after For returned", h)
	}
	// A helper's goroutine exits just after For stops waiting for it.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines = %d after For returned, baseline %d", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestForLowestIndexError(t *testing.T) {
	withProcs(t, 4)
	baseline := runtime.NumGoroutine()
	errs := map[int]error{3: errors.New("index 3"), 7: errors.New("index 7")}
	for run := 0; run < 100; run++ {
		rng := rand.New(rand.NewSource(int64(run)))
		sleeps := make([]time.Duration, 16)
		for i := range sleeps {
			sleeps[i] = time.Duration(rng.Intn(200)) * time.Microsecond
		}
		err := For(0, len(sleeps), func(i int) error {
			time.Sleep(sleeps[i])
			return errs[i]
		})
		if !errors.Is(err, errs[3]) {
			t.Fatalf("run %d: err = %v, want index 3's", run, err)
		}
		checkReleased(t, baseline)
	}
}

func TestForLimitOneRunsInOrderOnCaller(t *testing.T) {
	withProcs(t, 4)
	caller := goid()
	var order []int
	if err := For(1, 50, func(i int) error {
		if id := goid(); id != caller {
			return fmt.Errorf("index %d ran on goroutine %d, caller is %d", i, id, caller)
		}
		order = append(order, i)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("order = %v", order)
		}
	}
	if len(order) != 50 {
		t.Fatalf("ran %d of 50 indices", len(order))
	}
}

func TestForRunsEveryIndexOnce(t *testing.T) {
	withProcs(t, 4)
	baseline := runtime.NumGoroutine()
	for _, limit := range []int{0, 1, 2, 3, 100} {
		for _, n := range []int{0, 1, 2, 7, 64} {
			var p peak
			counts := make([]atomic.Int32, n)
			if err := For(limit, n, func(i int) error {
				p.enter()
				defer p.exit()
				counts[i].Add(1)
				time.Sleep(10 * time.Microsecond)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			for i := range counts {
				if c := counts[i].Load(); c != 1 {
					t.Fatalf("limit %d n %d: index %d ran %d times", limit, n, i, c)
				}
			}
			if limit > 0 && p.max.Load() > int64(limit) {
				t.Fatalf("limit %d n %d: %d fn calls at once", limit, n, p.max.Load())
			}
			checkReleased(t, baseline)
		}
	}
}

func TestForNestedStaysInBudget(t *testing.T) {
	withProcs(t, 4)
	baseline := runtime.NumGoroutine()
	var inner peak
	var ran atomic.Int64
	if err := For(0, 8, func(int) error {
		return For(0, 8, func(int) error {
			inner.enter()
			defer inner.exit()
			ran.Add(1)
			time.Sleep(100 * time.Microsecond)
			return nil
		})
	}); err != nil {
		t.Fatal(err)
	}
	if ran.Load() != 64 {
		t.Fatalf("inner fn ran %d times, want 64", ran.Load())
	}
	if m := inner.max.Load(); m > 4 {
		t.Fatalf("%d inner fn calls at once at GOMAXPROCS 4", m)
	}
	checkReleased(t, baseline)
}
