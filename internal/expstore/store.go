// Package expstore memoises the expensive artefacts of the experiment
// pipeline — generated site traces, slot views, evaluators and
// grid-search results — behind one concurrency-safe store shared by every
// driver in a process.
//
// The paper's reproduction is one big shared computation wearing several
// driver costumes: Table II, Table III, Table V, Fig. 7, the guideline
// and baseline studies all grid-search the same (site, N, space,
// reference) tuples, and each re-derives the same slot views and
// evaluators on the way. The store collapses that: each tuple is computed
// exactly once per process and every driver reads the same cached object.
//
// # Keying
//
// Entries are keyed by the full provenance of the value:
//
//   - a series by (site, days);
//   - a slot view by (site, days, N) — derived through a per-series
//     resolution pyramid (timeseries.Pyramid) seeded with the store's
//     ladder, so coarser views aggregate finer cached ones instead of
//     re-slotting the raw trace;
//   - an evaluator by (site, days, N, evaluator options);
//   - a grid result by (site, days, N, evaluator options, search-space
//     fingerprint, reference kind).
//
// Floating-point key components are fingerprinted with exact shortest
// round-trip formatting, so two spaces compare equal exactly when their
// parameters are bit-identical.
//
// # Single flight
//
// Each artefact kind has its own flight.Group. Concurrent requests for
// the same key are deduplicated: the first caller's computation runs
// once and every other caller shares its result. Callers already waiting
// on a flight that fails share its error, but the failed entry is
// evicted before they wake, so the next request for the key computes
// afresh instead of inheriting a permanently poisoned entry. A failure
// is a property of the attempt, not of the key: under a long-running
// server a transient error (an exhausted resource, a cancelled
// dependency) must not wedge a tuple for the process lifetime. A
// TraceFunc that panics is such a failure too: every waiter gets a
// *flight.PanicError and the key recomputes on the next call. Parallel
// (site, N) workers therefore never compute the same tuple twice, and a
// tuple whose first computation fails succeeds on retry.
//
// # Invalidation and memory bounds
//
// Successful entries are never invalidated: keys carry the full
// provenance of their value and the underlying data is immutable for a
// process lifetime, so entries never go stale and are never evicted
// (failed flights are the one exception — they leave their group so retries
// can proceed). Memory is bounded by the set of distinct keys requested —
// dominated by the grid results (one cell per (α, D, K) point) and the
// slot-view/evaluator columns, a few dozen MB at full paper scale. Reset
// drops everything for callers that want a cold store and is safe to call
// at any time, including concurrently with live readers.
package expstore

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"

	"solarpred/internal/flight"
	"solarpred/internal/optimize"
	"solarpred/internal/timeseries"
)

// TraceFunc generates (or loads) the raw series for a site at a trace
// length. It must be deterministic: the store caches its results and
// shares them across every consumer.
type TraceFunc func(site string, days int) (*timeseries.Series, error)

// EvalOptions identifies an evaluator configuration. The zero value of a
// field means the optimize package default; distinct option sets produce
// distinct cache entries.
type EvalOptions struct {
	// WarmupDays is the scoring warm-up (optimize.WithWarmupDays). It is
	// always applied, so 0 really means no warm-up.
	WarmupDays int
	// ROIFraction overrides the region-of-interest threshold when > 0.
	ROIFraction float64
	// EtaMax overrides the η ratio clamp when > 0.
	EtaMax float64
}

// apply converts the options into optimize evaluator options.
func (o EvalOptions) apply() []optimize.Option {
	opts := []optimize.Option{optimize.WithWarmupDays(o.WarmupDays)}
	if o.ROIFraction > 0 {
		opts = append(opts, optimize.WithROIFraction(o.ROIFraction))
	}
	if o.EtaMax > 0 {
		opts = append(opts, optimize.WithEtaMax(o.EtaMax))
	}
	return opts
}

// fingerprint renders the options as an exact key component.
func (o EvalOptions) fingerprint() string {
	return fmt.Sprintf("w%d,r%s,e%s", o.WarmupDays, fp(o.ROIFraction), fp(o.EtaMax))
}

// fp formats a float with shortest round-trip precision.
func fp(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }

// fpSlice joins exact float renderings.
func fpSlice(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fp(x)
	}
	return strings.Join(parts, ",")
}

// fpInts joins ints.
func fpInts(xs []int) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.Itoa(x)
	}
	return strings.Join(parts, ",")
}

// SpaceFingerprint renders a search space as an exact key component:
// order-sensitive (cell ordering is part of a SearchResult's contract).
func SpaceFingerprint(s optimize.Space) string {
	return "a=" + fpSlice(s.Alphas) + ";d=" + fpInts(s.Ds) + ";k=" + fpInts(s.Ks)
}

// Counter is a hit/miss pair for one artefact kind. A hit is a request
// served from a completed or in-flight computation; a miss is a request
// that had to compute.
type Counter struct {
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
}

// Sub returns the counter delta since prev.
func (c Counter) Sub(prev Counter) Counter {
	return Counter{Hits: c.Hits - prev.Hits, Misses: c.Misses - prev.Misses}
}

// counter reads a group's counters as a hit/miss pair.
func counter(st flight.Stats) Counter {
	return Counter{Hits: st.Coalesced, Misses: st.Computations}
}

// Stats is a snapshot of the store's counters.
type Stats struct {
	Series Counter `json:"series"`
	View   Counter `json:"view"`
	Eval   Counter `json:"eval"`
	Grid   Counter `json:"grid"`
}

// Sub returns the per-kind delta since prev — the per-driver accounting
// the bench harness records.
func (s Stats) Sub(prev Stats) Stats {
	return Stats{
		Series: s.Series.Sub(prev.Series),
		View:   s.View.Sub(prev.View),
		Eval:   s.Eval.Sub(prev.Eval),
		Grid:   s.Grid.Sub(prev.Grid),
	}
}

// Keys, one per artefact kind. Float-valued components enter as exact
// fingerprints.
type (
	seriesKey struct {
		site string
		days int
	}
	viewKey struct {
		seriesKey
		n int
	}
	evalKey struct {
		viewKey
		opts string
	}
	gridKey struct {
		evalKey
		space string
		ref   optimize.RefKind
	}
)

// generation is one Reset epoch of the store: an unbounded single-flight
// group per artefact kind, whose counters are the store's hit/miss
// counters.
type generation struct {
	series  flight.Group[seriesKey, *timeseries.Series]
	pyramid flight.Group[seriesKey, *timeseries.Pyramid]
	view    flight.Group[viewKey, *timeseries.SlotView]
	eval    flight.Group[evalKey, *optimize.Eval]
	grid    flight.Group[gridKey, *optimize.SearchResult]
}

// Store is the concurrency-safe memoization layer. The zero value is not
// usable; construct with New.
type Store struct {
	trace TraceFunc
	// ladder seeds each series' resolution pyramid, fixing the view
	// derivation chain so cached views are bit-stable across runs and
	// scheduling.
	ladder []int
	// gen is swapped whole by Reset, so entries and counters reset in
	// one step with respect to every reader. It is built on first use,
	// which keeps New as cheap as a bare struct.
	gen atomic.Pointer[generation]
}

// New builds a store over a trace generator. ladder lists the sampling
// rates each series' resolution pyramid pre-builds finest-first (pass the
// experiment's N set); it may be nil, in which case every view is slotted
// directly from the raw trace.
func New(trace TraceFunc, ladder []int) *Store {
	return &Store{trace: trace, ladder: append([]int(nil), ladder...)}
}

// generation returns the current generation, building the first one.
func (s *Store) generation() *generation {
	if g := s.gen.Load(); g != nil {
		return g
	}
	s.gen.CompareAndSwap(nil, new(generation))
	return s.gen.Load()
}

// Series returns the cached raw trace for (site, days).
func (s *Store) Series(site string, days int) (*timeseries.Series, error) {
	return s.generation().series.Do(context.Background(), seriesKey{site, days},
		func(context.Context) (*timeseries.Series, error) { return s.trace(site, days) })
}

// pyramid returns the cached resolution pyramid for (site, days). It is
// an implementation detail of view derivation, so no counter reports it.
func (s *Store) pyramid(site string, days int) (*timeseries.Pyramid, error) {
	return s.generation().pyramid.Do(context.Background(), seriesKey{site, days},
		func(context.Context) (*timeseries.Pyramid, error) {
			series, err := s.Series(site, days)
			if err != nil {
				return nil, err
			}
			return timeseries.NewPyramid(series, s.ladder)
		})
}

// View returns the cached slot view for (site, days, n), derived through
// the series' resolution pyramid.
func (s *Store) View(site string, days, n int) (*timeseries.SlotView, error) {
	return s.generation().view.Do(context.Background(), viewKey{seriesKey{site, days}, n},
		func(context.Context) (*timeseries.SlotView, error) {
			p, err := s.pyramid(site, days)
			if err != nil {
				return nil, err
			}
			return p.View(n)
		})
}

// Eval returns the cached evaluator for (site, days, n, opts). The
// returned evaluator is shared — it is safe for concurrent use and must
// not be mutated.
func (s *Store) Eval(site string, days, n int, opts EvalOptions) (*optimize.Eval, error) {
	return s.generation().eval.Do(context.Background(), evalKey{viewKey{seriesKey{site, days}, n}, opts.fingerprint()},
		func(context.Context) (*optimize.Eval, error) {
			view, err := s.View(site, days, n)
			if err != nil {
				return nil, err
			}
			return optimize.NewEval(view, opts.apply()...)
		})
}

// Grid returns the cached grid-search result for the full tuple
// (site, days, n, opts, space, ref). The returned result is shared and
// must not be mutated.
func (s *Store) Grid(site string, days, n int, opts EvalOptions, space optimize.Space, ref optimize.RefKind) (*optimize.SearchResult, error) {
	key := gridKey{evalKey{viewKey{seriesKey{site, days}, n}, opts.fingerprint()}, SpaceFingerprint(space), ref}
	return s.generation().grid.Do(context.Background(), key,
		func(context.Context) (*optimize.SearchResult, error) {
			e, err := s.Eval(site, days, n, opts)
			if err != nil {
				return nil, err
			}
			return e.GridSearch(space, ref)
		})
}

// Stats snapshots the hit/miss counters. The snapshot is consistent
// across kinds: it cannot observe a Reset half-applied.
func (s *Store) Stats() Stats {
	g := s.generation()
	return Stats{
		Series: counter(g.series.Stats()),
		View:   counter(g.view.Stats()),
		Eval:   counter(g.eval.Stats()),
		Grid:   counter(g.grid.Stats()),
	}
}

// Len returns the number of cached entries (completed successes plus
// in-flight computations; failed flights are evicted on completion).
func (s *Store) Len() int {
	g := s.generation()
	return g.series.Len() + g.pyramid.Len() + g.view.Len() + g.eval.Len() + g.grid.Len()
}

// Reset drops every cached entry and zeroes the counters by swapping in
// a fresh generation: a request observes either the full pre-Reset
// state or the full post-Reset state, never new entries with stale
// counters. It is safe for concurrent use — a serving daemon can expose
// it as an admin cache-flush without stopping the world. In-flight
// computations complete in the old generation: their waiters still
// receive the result, it just is not shared with requests that arrive
// after the Reset (which recompute into the new one).
func (s *Store) Reset() { s.gen.Store(new(generation)) }
