package flight

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal(msg)
		}
		time.Sleep(time.Millisecond)
	}
}

// leakCheck fails the test if, after its cleanups, the goroutine count
// does not settle back near the count at the call.
func leakCheck(t *testing.T) {
	t.Helper()
	before := runtime.NumGoroutine()
	t.Cleanup(func() {
		deadline := time.Now().Add(3 * time.Second)
		for runtime.NumGoroutine() > before {
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<20)
				n := runtime.Stack(buf, true)
				t.Errorf("goroutine leak: %d before, %d after\n%s", before, runtime.NumGoroutine(), buf[:n])
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
	})
}

func TestGroupCoalesces(t *testing.T) {
	g := New[string, int](4)
	defer g.Close()
	gate := make(chan struct{})
	var computes atomic.Int64

	const clients = 8
	var wg sync.WaitGroup
	results := make([]int, clients)
	errs := make([]error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = g.Do(context.Background(), "tuple", func(context.Context) (int, error) {
				computes.Add(1)
				<-gate
				return 42, nil
			})
		}(i)
	}
	// Wait until every client has been admitted (1 computation + 7
	// joins), then release the computation.
	for g.Stats().Coalesced < clients-1 {
		time.Sleep(time.Millisecond)
	}
	close(gate)
	wg.Wait()

	if got := computes.Load(); got != 1 {
		t.Fatalf("computations ran = %d, want 1", got)
	}
	st := g.Stats()
	if st.Computations != 1 || st.Coalesced != clients-1 || st.InFlight != 0 {
		t.Fatalf("stats = %+v, want 1 computation, %d coalesced, 0 in flight", st, clients-1)
	}
	for i := 0; i < clients; i++ {
		if errs[i] != nil {
			t.Fatalf("client %d: %v", i, errs[i])
		}
		if results[i] != 42 {
			t.Fatalf("client %d: result %v", i, results[i])
		}
	}
}

func TestGroupDistinctKeysRunIndependently(t *testing.T) {
	g := New[string, string](4)
	defer g.Close()
	var computes atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			key := fmt.Sprintf("k%d", i%3)
			if _, err := g.Do(context.Background(), key, func(context.Context) (string, error) {
				computes.Add(1)
				time.Sleep(2 * time.Millisecond)
				return key, nil
			}); err != nil {
				t.Errorf("do %s: %v", key, err)
			}
		}(i)
	}
	wg.Wait()
	// Memoisation makes this exact: one computation per distinct key.
	if got := computes.Load(); got != 3 {
		t.Fatalf("computations = %d, want 3", got)
	}
}

func TestGroupErrorFansOut(t *testing.T) {
	g := New[string, string](2)
	defer g.Close()
	boom := errors.New("boom")
	gate := make(chan struct{})
	const clients = 4
	errCh := make(chan error, clients)
	for i := 0; i < clients; i++ {
		go func() {
			_, err := g.Do(context.Background(), "bad", func(context.Context) (string, error) {
				<-gate
				return "", boom
			})
			errCh <- err
		}()
	}
	for g.Stats().Coalesced < clients-1 {
		time.Sleep(time.Millisecond)
	}
	close(gate)
	for i := 0; i < clients; i++ {
		if err := <-errCh; !errors.Is(err, boom) {
			t.Fatalf("client %d: err = %v, want boom", i, err)
		}
	}
	if g.Len() != 0 {
		t.Fatalf("failed flight retained: len = %d", g.Len())
	}
	// The flight is gone: a retry runs a fresh computation.
	v, err := g.Do(context.Background(), "bad", func(context.Context) (string, error) { return "ok", nil })
	if err != nil || v != "ok" {
		t.Fatalf("retry after failed flight: %v, %v", v, err)
	}
}

func TestGroupCloseDrains(t *testing.T) {
	g := New[any, any](2)
	gate := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		_, err := g.Do(context.Background(), "slow", func(context.Context) (any, error) {
			<-gate
			return nil, nil
		})
		done <- err
	}()
	for g.Stats().InFlight == 0 {
		time.Sleep(time.Millisecond)
	}
	closed := make(chan struct{})
	go func() {
		g.Close()
		close(closed)
	}()
	// New work is rejected while the old flight drains. Each attempt
	// uses a fresh key: a success before Close would be memoised.
	for i := 0; ; i++ {
		_, err := g.Do(context.Background(), i, func(context.Context) (any, error) { return nil, nil })
		if errors.Is(err, ErrClosed) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	select {
	case <-closed:
		t.Fatal("Close returned while a flight was still in progress")
	default:
	}
	close(gate)
	<-closed
	if err := <-done; err != nil {
		t.Fatalf("in-flight call during drain: %v", err)
	}
}

func TestGroupDoContextCancelled(t *testing.T) {
	g := New[string, any](1)
	defer g.Close()
	gate := make(chan struct{})
	defer close(gate)
	go g.Do(context.Background(), "hold", func(context.Context) (any, error) { <-gate; return nil, nil })
	for g.Stats().InFlight == 0 {
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := g.Do(ctx, "hold", func(context.Context) (any, error) { return nil, nil }); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestGroupAbandonCancelsCompute: when every waiter's context expires,
// the flight's context is cancelled instead of the computation burning a
// slot to completion.
func TestGroupAbandonCancelsCompute(t *testing.T) {
	leakCheck(t)
	g := New[string, int](1)
	defer g.Close()
	cancelled := make(chan struct{})
	started := make(chan struct{})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := g.Do(ctx, "doomed", func(fctx context.Context) (int, error) {
			close(started)
			<-fctx.Done() // the computation observes its own cancellation
			close(cancelled)
			return 0, fctx.Err()
		})
		done <- err
	}()
	<-started
	cancel() // the only waiter gives up
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("do err = %v", err)
	}
	select {
	case <-cancelled:
	case <-time.After(2 * time.Second):
		t.Fatal("flight context never cancelled after last waiter left")
	}
	waitFor(t, time.Second, func() bool {
		st := g.Stats()
		return st.Abandoned == 1 && st.InFlight == 0
	}, "abandon accounting")

	// A second waiter joining then leaving first must NOT cancel the
	// flight while the original waiter still wants the result.
	gate := make(chan struct{})
	res := make(chan error, 1)
	go func() {
		_, err := g.Do(context.Background(), "shared", func(fctx context.Context) (int, error) {
			select {
			case <-gate:
				return 1, nil
			case <-fctx.Done():
				return 0, fctx.Err()
			}
		})
		res <- err
	}()
	waitFor(t, time.Second, func() bool { return g.Stats().InFlight == 1 }, "flight not started")
	ctx2, cancel2 := context.WithCancel(context.Background())
	joined := make(chan error, 1)
	go func() {
		_, err := g.Do(ctx2, "shared", func(context.Context) (int, error) { return 0, nil })
		joined <- err
	}()
	waitFor(t, time.Second, func() bool { return g.Stats().Coalesced >= 1 }, "second waiter not coalesced")
	cancel2()
	if err := <-joined; !errors.Is(err, context.Canceled) {
		t.Fatalf("joined waiter err = %v", err)
	}
	close(gate)
	if err := <-res; err != nil {
		t.Fatalf("surviving waiter err = %v (flight was cancelled under it)", err)
	}
	if a := g.Stats().Abandoned; a != 1 {
		t.Fatalf("abandoned = %d after partial abandonment, want 1", a)
	}
}

// TestGroupPanicUnit pins the panic contract: every waiter gets a
// *PanicError, the slot is released and the key recomputes.
func TestGroupPanicUnit(t *testing.T) {
	g := New[string, string](1)
	defer g.Close()
	_, err := g.Do(context.Background(), "boom", func(context.Context) (string, error) {
		panic("kaboom")
	})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PanicError", err)
	}
	if pe.Value != "kaboom" || len(pe.Stack) == 0 || !strings.Contains(pe.Error(), "kaboom") {
		t.Fatalf("panic error: %+v", pe)
	}
	// The slot was released: more work runs fine.
	v, err := g.Do(context.Background(), "boom", func(context.Context) (string, error) { return "ok", nil })
	if err != nil || v != "ok" {
		t.Fatalf("after panic: %v %v", v, err)
	}
	if st := g.Stats(); st.Panics != 1 {
		t.Fatalf("panics = %d", st.Panics)
	}
	// A *PanicError returned from a nested group counts as a panic too.
	_, err = g.Do(context.Background(), "nested", func(context.Context) (string, error) {
		return "", fmt.Errorf("inner: %w", pe)
	})
	if !errors.As(err, &pe) {
		t.Fatalf("nested err = %v, want *PanicError", err)
	}
	if st := g.Stats(); st.Panics != 2 {
		t.Fatalf("panics after nested = %d, want 2", st.Panics)
	}
}

// TestGroupLimitNeverExceeded runs 4×limit distinct keys at once and
// tracks the running maximum of concurrent computations.
func TestGroupLimitNeverExceeded(t *testing.T) {
	const limit = 3
	g := New[int, int](limit)
	defer g.Close()
	var running, peak atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 4*limit; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err := g.Do(context.Background(), i, func(context.Context) (int, error) {
				n := running.Add(1)
				for {
					p := peak.Load()
					if n <= p || peak.CompareAndSwap(p, n) {
						break
					}
				}
				time.Sleep(2 * time.Millisecond)
				running.Add(-1)
				return i, nil
			})
			if err != nil || v != i {
				t.Errorf("key %d: %v, %v", i, v, err)
			}
		}(i)
	}
	wg.Wait()
	if p := peak.Load(); p > limit || p < 1 {
		t.Fatalf("peak concurrent computations = %d, limit %d", p, limit)
	}
	if c := g.Stats().Computations; c != 4*limit {
		t.Fatalf("computations = %d, want %d", c, 4*limit)
	}
}

// TestGroupMemoisesSuccess: a success is served from the memo, counted
// as coalesced, until Reset. It runs on the zero value, the unbounded
// group the experiment store embeds.
func TestGroupMemoisesSuccess(t *testing.T) {
	g := &Group[string, int]{}
	defer g.Close()
	var computes atomic.Int64
	fn := func(context.Context) (int, error) { return int(computes.Add(1)), nil }
	for i := 0; i < 5; i++ {
		if v, err := g.Do(context.Background(), "k", fn); err != nil || v != 1 {
			t.Fatalf("call %d: %v, %v", i, v, err)
		}
	}
	if v, ok := g.Peek("k"); !ok || v != 1 {
		t.Fatalf("peek = %v, %v", v, ok)
	}
	if _, ok := g.Peek("absent"); ok {
		t.Fatal("peek found an absent key")
	}
	st := g.Stats()
	if computes.Load() != 1 || st.Computations != 1 || st.Coalesced != 4 || g.Len() != 1 {
		t.Fatalf("computes = %d, stats = %+v, len = %d", computes.Load(), st, g.Len())
	}
	g.Reset()
	if g.Len() != 0 {
		t.Fatalf("len after reset = %d", g.Len())
	}
	if v, err := g.Do(context.Background(), "k", fn); err != nil || v != 2 {
		t.Fatalf("after reset: %v, %v (want a recomputation)", v, err)
	}
	// After Close a memoised success is still served; a miss is refused.
	g.Close()
	if v, err := g.Do(context.Background(), "k", fn); err != nil || v != 2 {
		t.Fatalf("memo hit after close: %v, %v", v, err)
	}
	if _, err := g.Do(context.Background(), "new", fn); !errors.Is(err, ErrClosed) {
		t.Fatalf("miss after close: %v, want ErrClosed", err)
	}
}

// TestGroupResetCloseRace drives Reset and Close against live Do calls;
// run under -race -count=10. Every call returns a correct value, a
// context error or ErrClosed, and nothing hangs.
func TestGroupResetCloseRace(t *testing.T) {
	leakCheck(t)
	g := New[int, int](2)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := (w + i) % 5
				cctx, ccancel := context.WithTimeout(ctx, time.Duration(i%3)*time.Millisecond)
				v, err := g.Do(cctx, key, func(fctx context.Context) (int, error) {
					if i%7 == 0 {
						return 0, errors.New("transient")
					}
					return key * 10, fctx.Err()
				})
				ccancel()
				switch {
				case err == nil && v != key*10:
					t.Errorf("key %d: value %d", key, v)
				case errors.Is(err, ErrClosed):
					return
				}
			}
		}(w)
	}
	for i := 0; i < 20; i++ {
		g.Reset()
		_ = g.Stats()
		_ = g.Len()
		time.Sleep(100 * time.Microsecond)
	}
	g.Close()
	wg.Wait()
	if st := g.Stats(); st.InFlight != 0 {
		t.Fatalf("in flight after close: %+v", st)
	}
}

// TestGroupCloseLeavesNoGoroutine: abandoned, failed, panicking and
// successful flights have all exited once Close returns.
func TestGroupCloseLeavesNoGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	g := New[int, int](2)
	gate := make(chan struct{})
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := context.Background()
			if i%2 == 0 {
				c = ctx
			}
			g.Do(c, i, func(fctx context.Context) (int, error) {
				switch i % 4 {
				case 1:
					panic("boom")
				case 3:
					return 0, errors.New("fail")
				}
				select {
				case <-gate:
				case <-fctx.Done():
				}
				return i, fctx.Err()
			})
		}(i)
	}
	waitFor(t, time.Second, func() bool { return g.Stats().Computations == 8 }, "flights not started")
	cancel()
	close(gate)
	g.Close()
	wg.Wait()
	// Close has waited for every flight; allow their goroutines the
	// instant between signalling and exiting.
	waitFor(t, time.Second, func() bool { return runtime.NumGoroutine() <= before },
		"goroutines left after Close")
}
