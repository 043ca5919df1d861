// Ablation benches, the Fig. 5 state machine, and
// micro-benchmarks of the hot paths. The paper's table and figure drivers
// are timed end to end by perfbench's repro-full workload, and their
// paper-shape checks are plain tests; run `cmd/repro` for the tables.
//
// Each bench attaches its key result to the output via b.ReportMetric
// (MAPE in percent, energy in µJ, …).
package solarpred_test

import (
	"math"
	"testing"

	"solarpred"
	"solarpred/internal/adaptive"
	"solarpred/internal/core"
	"solarpred/internal/dataset"
	"solarpred/internal/faults"
	"solarpred/internal/mcu"
	"solarpred/internal/metrics"
	"solarpred/internal/optimize"
	"solarpred/internal/solar"
	"solarpred/internal/timeseries"
)

// --- Fig. 5 ----------------------------------------------------------------

func BenchmarkFig5StateMachine(b *testing.B) {
	params := core.Params{Alpha: 0.7, D: 20, K: 2}
	var tl *mcu.Timeline
	for i := 0; i < b.N; i++ {
		var err error
		tl, err = mcu.Simulate(48, params, mcu.SoftFloat)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(tl.TotalEnergyJ()*1e3, "day-mJ")
}

// --- Ablations ---------------------------------------------------------------

// BenchmarkAblationFixedPoint compares the float64 predictor and the
// Q16.16 kernel numerically and reports the accuracy cost of fixed point
// alongside its cycle savings.
func BenchmarkAblationFixedPoint(b *testing.B) {
	params := core.Params{Alpha: 0.7, D: 10, K: 2}
	view := benchView(b, "SPMD", 40, 48)
	var worst float64
	for i := 0; i < b.N; i++ {
		kern, err := mcu.NewKernel(48, params)
		if err != nil {
			b.Fatal(err)
		}
		ref, err := core.New(48, params)
		if err != nil {
			b.Fatal(err)
		}
		worst = 0
		for t := 0; t < view.TotalSlots(); t++ {
			v := view.Start[t]
			if v >= 32768 {
				v = 32767
			}
			if err := kern.Observe(t%48, v); err != nil {
				b.Fatal(err)
			}
			if err := ref.Observe(t%48, v); err != nil {
				b.Fatal(err)
			}
			pq, err := kern.Predict()
			if err != nil {
				b.Fatal(err)
			}
			pf, err := ref.Predict()
			if err != nil {
				b.Fatal(err)
			}
			if d := math.Abs(pq-pf) / (1 + pf); d > worst {
				worst = d
			}
		}
	}
	c := mcu.TypicalPredictionCounter(params)
	b.ReportMetric(worst*100, "worst-dev%")
	b.ReportMetric(float64(c.Cycles(mcu.SoftFloat))/float64(c.Cycles(mcu.FixedQ16)), "cycle-ratio")
}

// BenchmarkAblationEvaluator times the vectorized fast path against the
// online predictor loop on identical work. Their agreement is pinned by
// optimize.TestVectorizedMatchesOnline.
func BenchmarkAblationEvaluator(b *testing.B) {
	view := benchView(b, "SPMD", 60, 48)
	e, err := optimize.NewEval(view, optimize.WithWarmupDays(15))
	if err != nil {
		b.Fatal(err)
	}
	params := core.Params{Alpha: 0.7, D: 10, K: 2}
	b.Run("online", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := e.EvaluateOnline(params, optimize.RefSlotMean); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("vectorized", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := e.SweepAlpha(params.D, params.K, []float64{params.Alpha}, optimize.RefSlotMean); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationPhiFallback measures what the η clamp is worth: MAPE
// with the default clamp versus unbounded ratios.
func BenchmarkAblationPhiFallback(b *testing.B) {
	view := benchView(b, "SPMD", 60, 24)
	params := core.Params{Alpha: 0.6, D: 12, K: 2}
	clamped, err := optimize.NewEval(view, optimize.WithWarmupDays(15))
	if err != nil {
		b.Fatal(err)
	}
	unclamped, err := optimize.NewEval(view, optimize.WithWarmupDays(15), optimize.WithEtaMax(math.Inf(1)))
	if err != nil {
		b.Fatal(err)
	}
	var mc, mu float64
	for i := 0; i < b.N; i++ {
		rc, err := clamped.SweepAlpha(params.D, params.K, []float64{params.Alpha}, optimize.RefSlotMean)
		if err != nil {
			b.Fatal(err)
		}
		ru, err := unclamped.SweepAlpha(params.D, params.K, []float64{params.Alpha}, optimize.RefSlotMean)
		if err != nil {
			b.Fatal(err)
		}
		mc, mu = rc[0].MAPE, ru[0].MAPE
	}
	if mu < mc {
		b.Log("note: unclamped beat clamped on this trace")
	}
	b.ReportMetric(mc*100, "clamped%")
	b.ReportMetric(mu*100, "unclamped%")
}

// BenchmarkAblationObservation feeds the predictor slot means instead of
// slot-start samples — the measurement-design alternative of Fig. 4.
func BenchmarkAblationObservation(b *testing.B) {
	view := benchView(b, "SPMD", 60, 48)
	meanView := &timeseries.SlotView{
		N: view.N, M: view.M, DaysCount: view.DaysCount,
		Start: view.Mean, Mean: view.Mean, SlotMinutes: view.SlotMinutes,
	}
	params := core.Params{Alpha: 0.7, D: 10, K: 2}
	var fromStarts, fromMeans float64
	for i := 0; i < b.N; i++ {
		e1, err := optimize.NewEval(view, optimize.WithWarmupDays(15))
		if err != nil {
			b.Fatal(err)
		}
		e2, err := optimize.NewEval(meanView, optimize.WithWarmupDays(15))
		if err != nil {
			b.Fatal(err)
		}
		r1, err := e1.EvaluateOnline(params, optimize.RefSlotMean)
		if err != nil {
			b.Fatal(err)
		}
		r2, err := e2.EvaluateOnline(params, optimize.RefSlotMean)
		if err != nil {
			b.Fatal(err)
		}
		fromStarts, fromMeans = r1.MAPE, r2.MAPE
	}
	b.ReportMetric(fromStarts*100, "from-samples%")
	b.ReportMetric(fromMeans*100, "from-means%")
}

// --- Micro-benchmarks --------------------------------------------------------

func benchView(b *testing.B, siteName string, days, n int) *timeseries.SlotView {
	b.Helper()
	site, err := dataset.SiteByName(siteName)
	if err != nil {
		b.Fatal(err)
	}
	series, err := dataset.GenerateDays(site, days)
	if err != nil {
		b.Fatal(err)
	}
	view, err := series.Slot(n)
	if err != nil {
		b.Fatal(err)
	}
	return view
}

func BenchmarkPredictorObservePredict(b *testing.B) {
	view := benchView(b, "NPCS", 30, 48)
	p, err := solarpred.NewPredictor(48, solarpred.Params{Alpha: 0.7, D: 10, K: 2})
	if err != nil {
		b.Fatal(err)
	}
	total := view.TotalSlots()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := i % total
		if t == 0 && i > 0 {
			// restart cleanly at trace end to keep slots in order
			p.Reset()
		}
		if err := p.Observe(t%48, view.Start[t]); err != nil {
			b.Fatal(err)
		}
		if _, err := p.Predict(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKernelPredictFixedPoint(b *testing.B) {
	view := benchView(b, "NPCS", 30, 48)
	k, err := mcu.NewKernel(48, core.Params{Alpha: 0.7, D: 10, K: 2})
	if err != nil {
		b.Fatal(err)
	}
	total := view.TotalSlots()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := i % total
		if t == 0 && i > 0 {
			b.StopTimer()
			k, err = mcu.NewKernel(48, core.Params{Alpha: 0.7, D: 10, K: 2})
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
		if err := k.Observe(t%48, view.Start[t]); err != nil {
			b.Fatal(err)
		}
		if _, err := k.Predict(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEvaluateOnline times one full online evaluation pass (the
// reference path the vectorized engine is validated against). The
// reported allocations are the constant per-call setup (predictor +
// accumulator); the per-prediction loop itself is allocation-free, which
// BenchmarkOnlinePredictionStep pins down.
func BenchmarkEvaluateOnline(b *testing.B) {
	view := benchView(b, "SPMD", 60, 48)
	e, err := optimize.NewEval(view, optimize.WithWarmupDays(15))
	if err != nil {
		b.Fatal(err)
	}
	params := core.Params{Alpha: 0.7, D: 10, K: 2}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.EvaluateOnline(params, optimize.RefSlotMean); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOnlinePredictionStep measures exactly one iteration of the
// EvaluateOnline inner loop — Observe, Predict, score — and must report
// 0 B/op: the acceptance bar for the evaluation engine is zero
// allocations per prediction.
func BenchmarkOnlinePredictionStep(b *testing.B) {
	view := benchView(b, "NPCS", 30, 48)
	p, err := core.New(48, core.Params{Alpha: 0.7, D: 10, K: 2})
	if err != nil {
		b.Fatal(err)
	}
	acc, err := metrics.NewAccumulator(0.1 * view.PeakMean())
	if err != nil {
		b.Fatal(err)
	}
	total := view.TotalSlots()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := i % total
		if t == 0 && i > 0 {
			p.Reset()
		}
		if err := p.Observe(t%48, view.Start[t]); err != nil {
			b.Fatal(err)
		}
		pred, err := p.Predict()
		if err != nil {
			b.Fatal(err)
		}
		acc.Add(pred, view.Mean[t])
	}
}

func BenchmarkSweepAlpha(b *testing.B) {
	view := benchView(b, "SPMD", 60, 48)
	e, err := optimize.NewEval(view, optimize.WithWarmupDays(15))
	if err != nil {
		b.Fatal(err)
	}
	alphas := optimize.DefaultSpace().Alphas
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.SweepAlpha(10, 3, alphas, optimize.RefSlotMean); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGridSearch(b *testing.B) {
	view := benchView(b, "SPMD", 60, 48)
	e, err := optimize.NewEval(view, optimize.WithWarmupDays(15))
	if err != nil {
		b.Fatal(err)
	}
	space := optimize.Space{
		Alphas: optimize.DefaultSpace().Alphas,
		Ds:     []int{2, 5, 10, 15},
		Ks:     []int{1, 2, 3, 6},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.GridSearch(space, optimize.RefSlotMean); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGenerateDay(b *testing.B) {
	site, err := dataset.SiteByName("ORNL")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dataset.GenerateDays(site, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSolarPosition(b *testing.B) {
	site := solar.Site{LatitudeDeg: 39.74, LongitudeDeg: -105.18, TimezoneHours: -7}
	var el float64
	for i := 0; i < b.N; i++ {
		pos := solar.PositionAt(site, 1+i%365, float64(i%1440))
		el = pos.Elevation
	}
	_ = el
}

func BenchmarkAdaptiveSelectorUpdate(b *testing.B) {
	cands, err := adaptive.Grid(optimize.DefaultSpace().Alphas, []int{1, 2, 3, 4, 5, 6})
	if err != nil {
		b.Fatal(err)
	}
	sel, err := adaptive.NewDiscounted(len(cands), 0.998)
	if err != nil {
		b.Fatal(err)
	}
	losses := make([]float64, len(cands))
	for i := range losses {
		losses[i] = float64(i%7) / 7
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = sel.Choose()
		sel.Update(losses)
	}
}

func BenchmarkFaultInjection(b *testing.B) {
	site, err := dataset.SiteByName("NPCS")
	if err != nil {
		b.Fatal(err)
	}
	series, err := dataset.GenerateDays(site, 30)
	if err != nil {
		b.Fatal(err)
	}
	cfg := faults.Config{Kind: faults.Dropout, Rate: 0.01, MeanLen: 8, Seed: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := faults.Inject(series, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHarvestSimulation(b *testing.B) {
	view := benchView(b, "HSU", 30, 48)
	cfg := solarpred.DefaultNodeConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pred, err := solarpred.NewPredictor(48, solarpred.Params{Alpha: 0.7, D: 10, K: 2})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := solarpred.SimulateNode(cfg, view, pred); err != nil {
			b.Fatal(err)
		}
	}
}
