package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"solarpred/internal/core"
	"solarpred/internal/dataset"
	"solarpred/internal/experiments"
	"solarpred/internal/expstore"
	"solarpred/internal/mcu"
	"solarpred/internal/optimize"
)

// Repro workload shape. A pass is the paper-scale driver set in
// cmd/repro's order against a fresh store; the paper universe is fixed,
// so the workload takes no seed.
const (
	reproMinPasses = 3
	reproSetupReps = 15
	// reproStoresPerRep store builds are timed together per set-up
	// repetition: one build takes microseconds.
	reproStoresPerRep = 5000
	n48               = 48
)

// driver is one driver call of cmd/repro, returning its rows.
type driver struct {
	name string
	run  func(cfg experiments.Config) (any, error)
}

// reproDrivers lists cmd/repro's driver calls in its order, with the
// configuration subsets it uses at full scale. Table I is folded into
// Fig. 2 (it is a constant table); rendering is left out.
func reproDrivers() []driver {
	tableVSites := []string{"SPMD", "ECSU", "ORNL", "HSU"}
	return []driver{
		{"fig2", func(cfg experiments.Config) (any, error) {
			f, err := experiments.Fig2(cfg, cfg.Sites[0], 6)
			return []any{dataset.TableI(), f}, err
		}},
		{"tableii", func(cfg experiments.Config) (any, error) { return experiments.TableII(cfg, n48) }},
		{"tableiii", func(cfg experiments.Config) (any, error) { return experiments.TableIII(cfg) }},
		{"tableiv_fig6", func(cfg experiments.Config) (any, error) {
			rows, err := mcu.TableIV(mcu.SoftFloat)
			if err != nil {
				return nil, err
			}
			ns, fr, err := mcu.Fig6(mcu.SoftFloat)
			return []any{rows, ns, fr}, err
		}},
		{"fig7", func(cfg experiments.Config) (any, error) { return experiments.Fig7(cfg, n48) }},
		{"tablev", func(cfg experiments.Config) (any, error) {
			cfg.Sites = tableVSites
			return experiments.TableV(cfg)
		}},
		{"guidelines", func(cfg experiments.Config) (any, error) { return experiments.Guidelines(cfg, n48) }},
		{"baselines", func(cfg experiments.Config) (any, error) {
			return experiments.Baselines(cfg, n48, []float64{0.1, 0.3, 0.5, 0.7, 0.9})
		}},
		{"ablation", func(cfg experiments.Config) (any, error) {
			var out []float64
			for _, k := range []int{1, 2, 4, 7} {
				p := core.Params{Alpha: 0.7, D: 20, K: k}
				for _, m := range []mcu.CostModel{mcu.SoftFloat, mcu.FixedQ16} {
					e, err := mcu.PredictionEnergyJ(p, m)
					if err != nil {
						return nil, err
					}
					out = append(out, e)
				}
			}
			return out, nil
		}},
		{"algorithms", func(cfg experiments.Config) (any, error) {
			costs, err := mcu.AlgorithmCosts(core.Params{Alpha: 0.7, D: 10, K: 2}, mcu.SoftFloat)
			if err != nil {
				return nil, err
			}
			one := cfg
			one.Sites = cfg.Sites[:1]
			bs, err := experiments.Baselines(one, n48, []float64{0.1, 0.3, 0.5})
			return []any{costs, bs}, err
		}},
		{"tablevi", func(cfg experiments.Config) (any, error) {
			cfg.Sites = tableVSites
			cfg.Ns = []int{96, 48, 24}
			return experiments.TableVI(cfg)
		}},
		{"daytype", func(cfg experiments.Config) (any, error) {
			var out []any
			for _, site := range cfg.Sites {
				r, err := experiments.ErrorByDayType(cfg, site, n48, experiments.GuidelineParams(n48))
				if err != nil {
					return nil, err
				}
				out = append(out, r)
			}
			return out, nil
		}},
		{"robustness", func(cfg experiments.Config) (any, error) { return experiments.Robustness(cfg, n48) }},
		{"seasonal", func(cfg experiments.Config) (any, error) {
			var out []any
			for _, site := range cfg.Sites {
				m, err := experiments.Seasonal(cfg, site, n48, experiments.GuidelineParams(n48))
				if err != nil {
					return nil, err
				}
				out = append(out, m)
			}
			return out, nil
		}},
		{"memory", func(cfg experiments.Config) (any, error) {
			return mcu.MemoryTable(core.Params{Alpha: 0.7, D: 10, K: 2})
		}},
	}
}

// reproPass runs every driver against cfg.Store and returns the digest
// of all rows. With a tracer, each driver call is an experiments.<driver>
// span under parent.
func reproPass(cfg experiments.Config, tr *tracer, parent int64) (string, error) {
	var enc strings.Builder
	for _, d := range reproDrivers() {
		var rows any
		var err error
		if tr != nil {
			err = tr.timed("experiments."+d.name, parent, 1, func() (err error) {
				rows, err = d.run(cfg)
				return err
			})
		} else {
			rows, err = d.run(cfg)
		}
		if err != nil {
			return "", fmt.Errorf("%s: %w", d.name, err)
		}
		enc.WriteString(d.name)
		enc.WriteByte('=')
		canonical(&enc, reflect.ValueOf(rows))
		enc.WriteByte('\n')
	}
	return sha([]byte(enc.String())), nil
}

// canonical writes an exact, deterministic text form of v: every float
// in its shortest round-tripping form (NaN included), struct fields in
// declaration order, map keys sorted.
func canonical(w *strings.Builder, v reflect.Value) {
	switch v.Kind() {
	case reflect.Invalid:
		w.WriteString("nil")
	case reflect.Pointer, reflect.Interface:
		if v.IsNil() {
			w.WriteString("nil")
			return
		}
		canonical(w, v.Elem())
	case reflect.Struct:
		w.WriteByte('{')
		for i := range v.NumField() {
			w.WriteString(v.Type().Field(i).Name)
			w.WriteByte(':')
			canonical(w, v.Field(i))
			w.WriteByte(' ')
		}
		w.WriteByte('}')
	case reflect.Slice, reflect.Array:
		w.WriteByte('[')
		for i := range v.Len() {
			canonical(w, v.Index(i))
			w.WriteByte(' ')
		}
		w.WriteByte(']')
	case reflect.Map:
		keys := v.MapKeys()
		sort.Slice(keys, func(i, j int) bool { return fmt.Sprint(keys[i]) < fmt.Sprint(keys[j]) })
		w.WriteByte('{')
		for _, k := range keys {
			canonical(w, k)
			w.WriteByte(':')
			canonical(w, v.MapIndex(k))
			w.WriteByte(' ')
		}
		w.WriteByte('}')
	case reflect.Float32, reflect.Float64:
		w.WriteString(strconv.FormatFloat(v.Float(), 'g', -1, 64))
	default:
		fmt.Fprint(w, v)
	}
}

func runRepro(b *bench) error {
	cfg := experiments.DefaultConfig()
	var setups []float64
	for range reproSetupReps {
		start := time.Now()
		for range reproStoresPerRep {
			cfg.Store = experiments.NewStore(cfg)
		}
		setups = append(setups, time.Since(start).Seconds()/reproStoresPerRep)
	}
	b.shape["sites"] = len(cfg.Sites)
	b.shape["days"] = cfg.Days
	b.shape["ns"] = cfg.Ns
	b.shape["grid_cells"] = cfg.Space.Size()
	b.shape["drivers"] = len(reproDrivers())

	if err := checkGolden(b); err != nil {
		return err
	}
	want, err := loadDigests(b.root)
	if err != nil {
		return err
	}
	if b.trace {
		return traceRepro(b, cfg, want.ReproFull)
	}
	b.set("setup_s", median(setups))
	var walls []float64
	deadline := b.deadline(1)
	for len(walls) < reproMinPasses || time.Now().Before(deadline) {
		cfg.Store = experiments.NewStore(cfg)
		runtime.GC()
		start := time.Now()
		digest, err := reproPass(cfg, nil, 0)
		wall := time.Since(start)
		if err != nil {
			return err
		}
		walls = append(walls, wall.Seconds())
		b.attempted += int64(len(reproDrivers())) - 1
		b.verify("repro.rows_digest", digest == want.ReproFull, "pass %d rows sha256 %s, recorded %s", len(walls), digest, want.ReproFull)
	}
	sorted := sortedCopy(walls)
	med := quantile(sorted, 0.5)
	b.set("latency_p50_ms", med*1e3)
	b.shape["slowest_pass_ms"] = sorted[len(sorted)-1] * 1e3
	b.set("saturation_rps", float64(len(reproDrivers()))/med)
	setMemory(b)
	runtime.KeepAlive(cfg.Store)
	b.shape["passes"] = len(walls)
	b.note("repro-full: %d passes, median %.3f s", len(walls), med)
	return nil
}

// checkGolden runs the quick-scale drivers the golden suite pins and
// compares their rows with internal/experiments/testdata/golden at the
// suite's 1e-9 tolerance. The golden files are only read.
func checkGolden(b *bench) error {
	cfg := experiments.QuickConfig()
	cfg.Store = experiments.NewStore(cfg)
	cases := []struct {
		file string
		run  func() (any, error)
	}{
		{"tableii.json", func() (any, error) { return experiments.TableII(cfg, n48) }},
		{"tableiii.json", func() (any, error) { return experiments.TableIII(cfg) }},
		{"tablev.json", func() (any, error) { return experiments.TableV(cfg) }},
		{"fig7.json", func() (any, error) { return experiments.Fig7(cfg, n48) }},
		{"guidelines.json", func() (any, error) { return experiments.Guidelines(cfg, n48) }},
	}
	for _, c := range cases {
		rows, err := c.run()
		if err != nil {
			return err
		}
		raw, err := os.ReadFile(filepath.Join(b.root, "internal", "experiments", "testdata", "golden", c.file))
		if err != nil {
			return err
		}
		live, err := json.Marshal(rows)
		if err != nil {
			return err
		}
		var want, got any
		if err := json.Unmarshal(raw, &want); err != nil {
			return fmt.Errorf("%s: %w", c.file, err)
		}
		if err := json.Unmarshal(live, &got); err != nil {
			return err
		}
		diff := treeDiff("", got, want)
		b.verify("repro.golden."+c.file, diff == "", "%s", diff)
	}
	return nil
}

// treeDiff compares decoded JSON trees: numbers within 1e-9 relative,
// everything else exactly. It returns the first difference, or "".
func treeDiff(loc string, got, want any) string {
	switch w := want.(type) {
	case map[string]any:
		g, ok := got.(map[string]any)
		if !ok || len(g) != len(w) {
			return loc + ": object shape differs"
		}
		for k := range w {
			if d := treeDiff(loc+"."+k, g[k], w[k]); d != "" {
				return d
			}
		}
	case []any:
		g, ok := got.([]any)
		if !ok || len(g) != len(w) {
			return loc + ": array shape differs"
		}
		for i := range w {
			if d := treeDiff(fmt.Sprintf("%s[%d]", loc, i), g[i], w[i]); d != "" {
				return d
			}
		}
	case float64:
		g, ok := got.(float64)
		if !ok || math.Abs(g-w) > 1e-9*(1+math.Max(math.Abs(g), math.Abs(w))) {
			return fmt.Sprintf("%s: %v, golden %v", loc, got, w)
		}
	default:
		if got != want {
			return fmt.Sprintf("%s: %v, golden %v", loc, got, w)
		}
	}
	return ""
}

// gridTuple is one grid search the drivers ask the store for.
type gridTuple struct {
	site string
	n    int
	ref  optimize.RefKind
}

// traceRepro splits a pass into layers. It runs one untraced pass, then a
// traced pass whose store is first filled phase by phase with spans —
// trace generation per site, slot views and evaluators per (site, N), grid
// searches per tuple the drivers need — before the drivers run, each in
// its own span, against the warm store.
func traceRepro(b *bench, cfg experiments.Config, wantDigest string) error {
	tr := b.tr
	cfg.Store = experiments.NewStore(cfg)
	runtime.GC()
	win := startWindow()
	start := time.Now()
	digest, err := reproPass(cfg, nil, 0)
	untraced := time.Since(start)
	if err != nil {
		return err
	}
	allocBytes, gcFrac := win.stop()
	b.attempted += int64(len(reproDrivers())) - 1
	b.verify("repro.rows_digest", digest == wantDigest, "untraced rows sha256 %s, recorded %s", digest, wantDigest)
	b.set("experiments.repro_s", untraced.Seconds())
	b.set("runtime.gc_cpu_frac", gcFrac)
	b.set("runtime.alloc_bytes_per_op", allocBytes)

	workers := runtime.GOMAXPROCS(0)
	st := newSpanTrace(tr, nil)
	store := expstore.New(st.generate, cfg.Ns)
	cfg.Store = store
	runtime.GC()
	mark := tr.mark()
	pass := tr.open("repro.pass", 0, 0)

	phase := tr.open("repro.phase.traces", pass.s.ID, 0)
	if err := pool(workers, len(cfg.Sites), func(_, i int) error {
		_, err := store.Series(cfg.Sites[i], cfg.Days)
		return err
	}); err != nil {
		return err
	}
	phase.close()

	var pairs []gridTuple
	for _, site := range cfg.Sites {
		for _, n := range cfg.Ns {
			deg, err := experiments.Degenerate(site, n)
			if err != nil {
				return err
			}
			if !deg {
				pairs = append(pairs, gridTuple{site, n, optimize.RefSlotMean})
			}
		}
	}
	phase = tr.open("repro.phase.evals", pass.s.ID, 0)
	if err := pool(workers, len(pairs), func(_, i int) error {
		if _, err := st.view(store, pairs[i].site, cfg.Days, pairs[i].n); err != nil {
			return err
		}
		return tr.timed("expstore.eval", 0, 1, func() error {
			_, err := store.Eval(pairs[i].site, cfg.Days, pairs[i].n, cfg.EvalOptions())
			return err
		})
	}); err != nil {
		return err
	}
	phase.close()

	grids := append([]gridTuple(nil), pairs...)
	for _, site := range cfg.Sites {
		grids = append(grids, gridTuple{site, n48, optimize.RefSlotStart})
	}
	phase = tr.open("repro.phase.grids", pass.s.ID, 0)
	if err := pool(workers, len(grids), func(_, i int) error {
		g := grids[i]
		return tr.timed("optimize.grid", 0, 1, func() error {
			_, err := store.Grid(g.site, cfg.Days, g.n, cfg.EvalOptions(), cfg.Space, g.ref)
			return err
		})
	}); err != nil {
		return err
	}
	phase.close()

	digest, err = reproPass(cfg, tr, pass.s.ID)
	if err != nil {
		return err
	}
	pass.close()
	b.verify("repro.rows_digest_traced", digest == wantDigest, "traced rows sha256 %s, recorded %s", digest, wantDigest)

	// The day-type driver regenerates each site's trace with its weather
	// labels (dataset.GenerateLabeled, outside the store); record that
	// generation on its own so it counts as trace generation, not as the
	// driver's self time.
	for _, name := range cfg.Sites {
		site, err := dataset.SiteByName(name)
		if err != nil {
			return err
		}
		if err := tr.timed("dataset.generate_labeled", 0, int64(site.Days), func() error {
			_, _, err := dataset.GenerateLabeled(site)
			return err
		}); err != nil {
			return err
		}
	}

	lt := tr.totals(mark)
	for _, d := range reproDrivers() {
		b.set("experiments."+d.name+"_s", lt["experiments."+d.name].total.Seconds())
	}
	gen := lt["dataset.generate"]
	b.set("dataset.trace_ms_per_site_day", gen.per(time.Millisecond))
	b.set("expstore.view_ms", lt["expstore.view"].per(time.Millisecond))
	b.set("expstore.eval_ms", lt["expstore.eval"].per(time.Millisecond))
	grid := lt["optimize.grid"]
	b.set("optimize.grid_ms", grid.per(time.Millisecond))
	b.set("optimize.grid_cells_per_s", float64(grid.calls)*float64(cfg.Space.Size())/grid.self.Seconds())
	setStoreRatios(b, store.Stats())

	traces, evals, gridPhase := lt["repro.phase.traces"].total, lt["repro.phase.evals"].total, lt["repro.phase.grids"].total
	labels := min(lt["dataset.generate_labeled"].total, lt["experiments.daytype"].total)
	share := (traces + labels + evals + gridPhase).Seconds() / untraced.Seconds()
	b.set("experiments.tracegen_grid_frac", share)
	b.note("trace generation %.3f s (store %.3f + day-type labels %.3f), views/evals %.3f s, grids %.3f s: %.0f%% of the untraced pass",
		(traces + labels).Seconds(), traces.Seconds(), labels.Seconds(), evals.Seconds(), gridPhase.Seconds(), 100*share)

	traced := lt["repro.pass"].total
	var drivers time.Duration
	for _, d := range reproDrivers() {
		drivers += lt["experiments."+d.name].total
	}
	accounted := traces + evals + gridPhase + drivers
	b.set("trace.overhead_frac", traced.Seconds()/untraced.Seconds()-1)
	b.set("trace.unaccounted_frac", (untraced-accounted).Seconds()/untraced.Seconds())
	b.note("accounting: pass %.3f s untraced, %.3f s traced (overhead %+.1f%%); layers: traces %.3f + views/evals %.3f + grids %.3f + drivers on a warm store %.3f = %.3f s",
		untraced.Seconds(), traced.Seconds(), 100*(traced.Seconds()/untraced.Seconds()-1),
		traces.Seconds(), evals.Seconds(), gridPhase.Seconds(), drivers.Seconds(), accounted.Seconds())

	if err := traceDynamic(b, cfg); err != nil {
		return err
	}
	sites := make([]dataset.Site, 0, 2)
	for _, name := range cfg.Sites[:2] {
		s, err := dataset.SiteByName(name)
		if err != nil {
			return err
		}
		sites = append(sites, s)
	}
	return traceTraceGen(b, sites, cfg.Days)
}

// traceDynamic records the clairvoyant dynamic-parameter evaluation Table
// V runs, on the warm store's evaluators and grids.
func traceDynamic(b *bench, cfg experiments.Config) error {
	grid := core.DynamicGrid{Alphas: cfg.Space.Alphas, Ks: cfg.Space.Ks}
	mark := b.tr.mark()
	for _, site := range []string{"SPMD", "ECSU"} {
		e, err := cfg.Store.Eval(site, cfg.Days, n48, cfg.EvalOptions())
		if err != nil {
			return err
		}
		res, err := cfg.Store.Grid(site, cfg.Days, n48, cfg.EvalOptions(), cfg.Space, optimize.RefSlotMean)
		if err != nil {
			return err
		}
		if err := b.tr.timed("optimize.dynamic", 0, 1, func() error {
			_, err := e.DynamicEval(res.Best.Params.D, grid, res.Best, optimize.RefSlotMean)
			return err
		}); err != nil {
			return err
		}
	}
	b.set("optimize.dynamic_ms", b.tr.totals(mark)["optimize.dynamic"].per(time.Millisecond))
	return nil
}
