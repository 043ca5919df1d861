package guard_test

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"solarpred/internal/core"
	"solarpred/internal/faults"
	"solarpred/internal/guard"
	"solarpred/internal/timeseries"
)

// TestDeriveMatchesDirectReplay pins Guard.Derive against guards built
// with the target parameters and fed the same raw stream: on the clean
// trace, under every faults.Scenarios() model, and on a stream whose
// last day is a held sensor (so the degraded μD fallback is compared
// too), a view derived from one K=1 replay returns the same forecast
// for every horizon, the same quality and degraded flag, and the same
// detector stats at every stop point.
func TestDeriveMatchesDirectReplay(t *testing.T) {
	const d = 10
	targets := []core.Params{
		{Alpha: 0, D: d, K: 1},
		{Alpha: 0.5, D: d, K: 3},
		{Alpha: 0.7, D: d, K: 2},
		{Alpha: 0.3, D: d, K: testN},
	}
	clean := trace(t, "SPMD")
	streams := map[string]*timeseries.SlotView{"clean": slotView(t, clean)}
	for _, sc := range faults.Scenarios() {
		corrupted, _, err := faults.Inject(clean, sc)
		if err != nil {
			t.Fatal(err)
		}
		streams[fmt.Sprintf("%v/%d", sc.Kind, sc.Seed)] = slotView(t, corrupted)
	}
	held := *streams["clean"]
	held.Start = append([]float64(nil), held.Start...)
	for j := range testN {
		held.Start[len(held.Start)-testN+j] = 5 // a sensor holding one value
	}
	streams["held"] = &held

	sawDegraded := false
	for name, v := range streams {
		base, err := guard.New(testN, core.Params{D: d, K: 1}, guard.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		direct := make([]*guard.Guard, len(targets))
		for i, params := range targets {
			if direct[i], err = guard.New(testN, params, guard.DefaultConfig()); err != nil {
				t.Fatal(err)
			}
		}
		for i, x := range v.Start {
			slot := i % testN
			if err := base.Observe(slot, x); err != nil {
				t.Fatal(err)
			}
			for _, g := range direct {
				if err := g.Observe(slot, x); err != nil {
					t.Fatal(err)
				}
			}
			for _, want := range direct {
				got, err := base.Derive(want.Predictor().Params())
				if err != nil {
					t.Fatal(err)
				}
				if got.Stats() != want.Stats() {
					t.Fatalf("%s t=%d: stats derived %+v, direct %+v", name, i, got.Stats(), want.Stats())
				}
				sawDegraded = sawDegraded || want.Degraded()
				for _, h := range []int{1, testN / 4, testN} {
					gf, gerr := got.Forecast(h)
					wf, werr := want.Forecast(h)
					if (gerr == nil) != (werr == nil) {
						t.Fatalf("%s t=%d h=%d: derived error %v, direct %v", name, i, h, gerr, werr)
					}
					if werr != nil {
						continue
					}
					if gf.Degraded != wf.Degraded || gf.Quality != wf.Quality {
						t.Fatalf("%s t=%d h=%d: derived %+v, direct %+v", name, i, h, gf, wf)
					}
					for k := range wf.Watts {
						if math.Float64bits(gf.Watts[k]) != math.Float64bits(wf.Watts[k]) {
							t.Fatalf("%s t=%d h=%d %+v: watts[%d] derived %v, direct %v",
								name, i, h, want.Predictor().Params(), k, gf.Watts[k], wf.Watts[k])
						}
					}
				}
			}
		}
	}
	if !sawDegraded {
		t.Fatal("no stream reached the degraded fallback")
	}
}

// TestDeriveRefusesObserve stops a replay at midday and offers the
// derived view a repeat of the last sample — one the dropout detector
// would flag. The view must refuse before any detector state moves.
func TestDeriveRefusesObserve(t *testing.T) {
	v := slotView(t, trace(t, "SPMD"))
	g := newGuard(t)
	stop := len(v.Start) - testN/2
	for i, x := range v.Start[:stop] {
		if err := g.Observe(i%testN, x); err != nil {
			t.Fatal(err)
		}
	}
	last := v.Start[stop-1]
	if last <= 0 {
		t.Fatalf("midday sample %v is not positive", last)
	}
	before := g.Stats()
	params := g.Predictor().Params()
	params.Alpha, params.K = 0.1, 4
	view, err := g.Derive(params)
	if err != nil {
		t.Fatal(err)
	}
	if err := view.Observe(stop%testN, last); !errors.Is(err, core.ErrDerived) {
		t.Fatalf("Observe on a derived guard: %v, want core.ErrDerived", err)
	}
	if g.Stats() != before || view.Stats() != before {
		t.Fatalf("refused Observe changed state: base %+v, view %+v, was %+v", g.Stats(), view.Stats(), before)
	}
	params.D++
	if _, err := g.Derive(params); err == nil {
		t.Error("Derive accepted a different D")
	}
}
