// Package flight provides Group, the memoising single-flight primitive
// behind the experiment store and the prediction service.
//
// A Group runs one computation per key and shares its result with every
// caller that asks for the key while it runs. A success stays cached
// until Reset; a failure is evicted before any waiter wakes, so the next
// caller recomputes instead of inheriting an error that was a property
// of the attempt, not of the key. A panic inside a computation reaches
// every waiter as a *PanicError instead of killing the process.
//
// Each computation runs on its own goroutine under a context owned by
// the flight. Every waiter honours its own context; when the last one
// gives up, the flight's context is cancelled so the computation can
// stop, and the flight is dropped so a later caller starts afresh. A
// Group built with a limit runs at most that many computations at once.
// Close refuses new computations and waits for the running ones, which
// gives a serving process one drain point.
package flight

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
)

// ErrClosed is returned for a computation requested after Close.
var ErrClosed = errors.New("flight: draining, not accepting new work")

// PanicError is the error every waiter of a flight receives when its
// computation panicked. The value and stack are captured here and the
// flight is evicted like any failure, so a retry recomputes.
type PanicError struct {
	Value any
	Stack []byte
}

// Error describes the recovered panic.
func (e *PanicError) Error() string {
	return fmt.Sprintf("flight: computation panicked: %v", e.Value)
}

// Stats is a snapshot of a Group's counters.
type Stats struct {
	// Computations is the number of computations started.
	Computations uint64 `json:"computations"`
	// Coalesced is the number of calls served without computing: by
	// joining a running flight or from a memoised success.
	Coalesced uint64 `json:"coalesced"`
	// InFlight is the number of computations currently running.
	InFlight int64 `json:"in_flight"`
	// Panics is the number of computations that panicked or returned a
	// *PanicError from a nested Group.
	Panics uint64 `json:"panics"`
	// Abandoned is the number of flights whose waiters all gave up
	// before the result arrived; their contexts were cancelled.
	Abandoned uint64 `json:"abandoned"`
}

// call is one flight. val and err are written under Group.mu before done
// closes; a settled call still in the map is a memoised success. cancel
// is cleared when the call settles, so a memoised entry does not keep
// its context alive.
type call[V any] struct {
	done    chan struct{}
	val     V
	err     error
	settled bool
	waiters int
	cancel  context.CancelFunc
}

// Group is a memoising single-flight group. The zero value is an
// unbounded group ready to use; New builds a bounded one.
type Group[K comparable, V any] struct {
	sem     chan struct{} // counting semaphore; nil when unbounded
	running sync.WaitGroup

	mu     sync.Mutex
	calls  map[K]*call[V] // allocated on the first computation
	closed bool
	stats  Stats
}

// New builds a group that runs at most limit computations at once; 0
// means unbounded.
func New[K comparable, V any](limit int) *Group[K, V] {
	g := &Group[K, V]{}
	if limit > 0 {
		g.sem = make(chan struct{}, limit)
	}
	return g
}

// Do returns the result of fn for key, running fn at most once per key
// until it succeeds (or until Reset). Concurrent callers share one run.
// Do returns ctx.Err() if ctx ends first, and ErrClosed when a new
// computation is needed after Close.
func (g *Group[K, V]) Do(ctx context.Context, key K, fn func(context.Context) (V, error)) (V, error) {
	var zero V
	g.mu.Lock()
	c, ok := g.calls[key]
	switch {
	case ok && c.settled:
		g.stats.Coalesced++
		g.mu.Unlock()
		return c.val, nil
	case ok:
		g.stats.Coalesced++
		c.waiters++
	case g.closed:
		g.mu.Unlock()
		return zero, ErrClosed
	case ctx.Err() != nil:
		g.mu.Unlock()
		return zero, ctx.Err()
	default:
		fctx, cancel := context.WithCancel(context.Background())
		c = &call[V]{done: make(chan struct{}), waiters: 1, cancel: cancel}
		if g.calls == nil {
			g.calls = make(map[K]*call[V])
		}
		g.calls[key] = c
		g.stats.Computations++
		g.stats.InFlight++
		g.running.Add(1)
		go g.run(fctx, key, c, fn)
	}
	g.mu.Unlock()
	select {
	case <-c.done:
		return c.val, c.err
	case <-ctx.Done():
		g.leave(key, c)
		return zero, ctx.Err()
	}
}

// leave drops one waiter; the last waiter of an unsettled flight cancels
// it and removes it from the map.
func (g *Group[K, V]) leave(key K, c *call[V]) {
	var cancel context.CancelFunc
	g.mu.Lock()
	c.waiters--
	if c.waiters == 0 && !c.settled {
		g.stats.Abandoned++
		g.evict(key, c)
		cancel = c.cancel
	}
	g.mu.Unlock()
	if cancel != nil {
		cancel()
	}
}

// evict removes c under g.mu, unless Reset or a newer flight replaced it.
func (g *Group[K, V]) evict(key K, c *call[V]) {
	if g.calls[key] == c {
		delete(g.calls, key)
	}
}

// run computes one flight and publishes its result: a failure leaves the
// map before the waiters wake.
func (g *Group[K, V]) run(ctx context.Context, key K, c *call[V], fn func(context.Context) (V, error)) {
	defer g.running.Done()
	val, err := g.compute(ctx, fn)
	var pe *PanicError
	g.mu.Lock()
	c.val, c.err, c.settled = val, err, true
	cancel := c.cancel
	c.cancel = nil
	g.stats.InFlight--
	if err != nil {
		g.evict(key, c)
		if errors.As(err, &pe) {
			g.stats.Panics++
		}
	}
	g.mu.Unlock()
	cancel()
	close(c.done)
}

// compute waits for a slot, honouring the flight context, then runs fn
// with any panic converted into a *PanicError.
func (g *Group[K, V]) compute(ctx context.Context, fn func(context.Context) (V, error)) (val V, err error) {
	if g.sem != nil {
		select {
		case g.sem <- struct{}{}:
			defer func() { <-g.sem }()
		case <-ctx.Done():
			return val, ctx.Err()
		}
	}
	defer func() {
		if r := recover(); r != nil {
			var zero V
			val, err = zero, &PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	return fn(ctx)
}

// Peek returns the memoised success for key, if there is one, without
// counting or starting anything.
func (g *Group[K, V]) Peek(key K) (V, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if c, ok := g.calls[key]; ok && c.settled {
		return c.val, true
	}
	var zero V
	return zero, false
}

// Len returns the number of entries: memoised successes plus running
// flights.
func (g *Group[K, V]) Len() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.calls)
}

// Stats snapshots the counters.
func (g *Group[K, V]) Stats() Stats {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.stats
}

// Reset drops every entry. Running flights still answer their waiters,
// but their results are not memoised; later callers recompute. The
// counters are kept.
func (g *Group[K, V]) Reset() {
	g.mu.Lock()
	g.calls = nil
	g.mu.Unlock()
}

// Close refuses new computations with ErrClosed and blocks until every
// running one has answered its waiters. Memoised successes and running
// flights can still be read. Close is idempotent.
func (g *Group[K, V]) Close() {
	g.mu.Lock()
	g.closed = true
	g.mu.Unlock()
	g.running.Wait()
}
