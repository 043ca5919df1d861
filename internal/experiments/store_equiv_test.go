package experiments

import (
	"encoding/json"
	"sync"
	"testing"
)

// compareAsJSON flattens two row slices through JSON and compares them
// field by field within goldenTolerance, reusing the golden comparator.
func compareAsJSON(t *testing.T, loc string, got, want any) {
	t.Helper()
	g, err := json.Marshal(got)
	if err != nil {
		t.Fatalf("%s: marshal live: %v", loc, err)
	}
	w, err := json.Marshal(want)
	if err != nil {
		t.Fatalf("%s: marshal reference: %v", loc, err)
	}
	var gt, wt any
	if err := json.Unmarshal(g, &gt); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(w, &wt); err != nil {
		t.Fatal(err)
	}
	compareTrees(t, loc, gt, wt)
}

// TestStoreOnOffEquivalence proves the memoization layer is behaviour
// preserving: every driver must produce the same rows with and without a
// store (pyramid-derived views and shared grid results included), cell
// for cell within the association tolerance.
func TestStoreOnOffEquivalence(t *testing.T) {
	off := QuickConfig()
	on := QuickConfig()
	on.Store = NewStore(on)

	type driver struct {
		name string
		run  func(cfg Config) (any, error)
	}
	drivers := []driver{
		{"TableII", func(cfg Config) (any, error) { return TableII(cfg, 48) }},
		{"TableIII", func(cfg Config) (any, error) { return TableIII(cfg) }},
		{"TableV", func(cfg Config) (any, error) { return TableV(cfg) }},
		{"Fig7", func(cfg Config) (any, error) { return Fig7(cfg, 48) }},
		{"Guidelines", func(cfg Config) (any, error) { return Guidelines(cfg, 48) }},
		{"Baselines", func(cfg Config) (any, error) { return Baselines(cfg, 48, []float64{0.3, 0.7}) }},
		{"TableVI", func(cfg Config) (any, error) { return TableVI(cfg) }},
		{"ErrorByDayType", func(cfg Config) (any, error) {
			var out []*DayTypeError
			for _, site := range cfg.Sites {
				r, err := ErrorByDayType(cfg, site, 48, GuidelineParams(48))
				if err != nil {
					return nil, err
				}
				out = append(out, r)
			}
			return out, nil
		}},
	}
	for _, d := range drivers {
		t.Run(d.name, func(t *testing.T) {
			want, err := d.run(off)
			if err != nil {
				t.Fatal(err)
			}
			got, err := d.run(on)
			if err != nil {
				t.Fatal(err)
			}
			compareAsJSON(t, d.name, got, want)
		})
	}
}

// TestStoreViewsMatchDirectSlotting pins the pyramid-derived store views
// against direct slotting of the raw trace, cell for cell and
// bit-identical: the pyramid aggregates the M==1 base view with the same
// sequential sums Series.Slot performs.
func TestStoreViewsMatchDirectSlotting(t *testing.T) {
	cfg := QuickConfig()
	cfg.Store = NewStore(cfg)
	for _, site := range cfg.Sites {
		series, err := cfg.Trace(site)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range cfg.Ns {
			view, err := cfg.Store.View(site, cfg.Days, n)
			if err != nil {
				t.Fatal(err)
			}
			direct, err := series.Slot(n)
			if err != nil {
				t.Fatal(err)
			}
			if view.N != direct.N || view.M != direct.M || view.DaysCount != direct.DaysCount {
				t.Fatalf("%s N=%d: geometry mismatch", site, n)
			}
			for i := range direct.Start {
				if view.Start[i] != direct.Start[i] {
					t.Fatalf("%s N=%d: Start[%d] = %v, direct %v", site, n, i, view.Start[i], direct.Start[i])
				}
				if view.Mean[i] != direct.Mean[i] {
					t.Fatalf("%s N=%d: Mean[%d] = %v, direct %v", site, n, i, view.Mean[i], direct.Mean[i])
				}
			}
			if !view.HasPrefix() {
				t.Fatalf("%s N=%d: store view lacks prefix columns", site, n)
			}
		}
	}
}

// expectedGridTuples counts the distinct (site, N, ref) grid tuples the
// repro driver set needs at sampling rate n48: one RefSlotMean grid per
// non-degenerate (site, N) plus one per (site, n48) regardless of Ns, and
// one RefSlotStart grid per (site, n48) for Table II's dual optimisation.
func expectedGridTuples(t *testing.T, cfg Config, n48 int) int {
	t.Helper()
	mean := map[[2]any]bool{}
	for _, site := range cfg.Sites {
		for _, n := range cfg.Ns {
			deg, err := Degenerate(site, n)
			if err != nil {
				t.Fatal(err)
			}
			if !deg {
				mean[[2]any{site, n}] = true
			}
		}
		mean[[2]any{site, n48}] = true
	}
	return len(mean) + len(cfg.Sites) // + RefSlotStart at n48 per site
}

// TestReproDriversGridSearchOncePerTuple runs the full quick-scale repro
// driver set concurrently against one store — the way cmd/repro does —
// and asserts the acceptance invariant of the store: every
// (site, N, space, ref) tuple is grid-searched exactly once per process,
// with parallel drivers deduplicated by single flight. Run under -race
// this doubles as the single-flight race check.
func TestReproDriversGridSearchOncePerTuple(t *testing.T) {
	cfg := QuickConfig()
	cfg.Workers = 4
	cfg.Store = NewStore(cfg)
	const n48 = 48

	drivers := []func() error{
		func() error { _, err := TableII(cfg, n48); return err },
		func() error { _, err := TableIII(cfg); return err },
		func() error { _, err := TableV(cfg); return err },
		func() error { _, err := Fig7(cfg, n48); return err },
		func() error { _, err := Guidelines(cfg, n48); return err },
		func() error { _, err := Baselines(cfg, n48, []float64{0.3, 0.7}); return err },
		func() error { _, err := TableVI(cfg); return err },
	}
	errs := make([]error, len(drivers))
	var wg sync.WaitGroup
	for i, d := range drivers {
		wg.Add(1)
		go func(i int, d func() error) {
			defer wg.Done()
			errs[i] = d()
		}(i, d)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("driver %d: %v", i, err)
		}
	}

	st := cfg.Store.Stats()
	want := uint64(expectedGridTuples(t, cfg, n48))
	if st.Grid.Misses != want {
		t.Errorf("grid searches computed = %d, want exactly %d (one per tuple)", st.Grid.Misses, want)
	}
	if st.Grid.Hits == 0 {
		t.Error("no grid reuse across drivers")
	}
	if st.Series.Misses != uint64(len(cfg.Sites)) {
		t.Errorf("series generated %d times, want %d", st.Series.Misses, len(cfg.Sites))
	}
	if st.Eval.Misses != want-uint64(len(cfg.Sites)) {
		// One evaluator per (site, N) mean tuple; the RefSlotStart grids
		// share the (site, 48) evaluator.
		t.Errorf("evaluators built = %d, want %d", st.Eval.Misses, want-uint64(len(cfg.Sites)))
	}

	// A warm second pass computes nothing new.
	if _, err := TableIII(cfg); err != nil {
		t.Fatal(err)
	}
	if again := cfg.Store.Stats(); again.Grid.Misses != st.Grid.Misses {
		t.Errorf("second pass recomputed grids: %d → %d", st.Grid.Misses, again.Grid.Misses)
	}

	// And the warm rows still match a cold store-off run exactly.
	off := QuickConfig()
	want3, err := TableIII(off)
	if err != nil {
		t.Fatal(err)
	}
	got3, err := TableIII(cfg)
	if err != nil {
		t.Fatal(err)
	}
	compareAsJSON(t, "TableIII(warm)", got3, want3)
}
