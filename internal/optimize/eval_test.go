package optimize

import (
	"math"
	"testing"

	"solarpred/internal/core"
	"solarpred/internal/dataset"
	"solarpred/internal/timeseries"
)

// testView generates a short slotted trace for a site. Days is kept small
// to make the full grid affordable in tests.
func testView(t testing.TB, siteName string, days, n int) *timeseries.SlotView {
	t.Helper()
	site, err := dataset.SiteByName(siteName)
	if err != nil {
		t.Fatal(err)
	}
	series, err := dataset.GenerateDays(site, days)
	if err != nil {
		t.Fatal(err)
	}
	view, err := series.Slot(n)
	if err != nil {
		t.Fatal(err)
	}
	return view
}

func newEval(t testing.TB, view *timeseries.SlotView, opts ...Option) *Eval {
	t.Helper()
	e, err := NewEval(view, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestRefKindString(t *testing.T) {
	if RefSlotMean.String() != "MAPE" || RefSlotStart.String() != "MAPE'" {
		t.Error("ref kind names")
	}
	if RefKind(7).String() != "RefKind(7)" {
		t.Error("unknown ref kind formatting")
	}
}

func TestNewEvalValidation(t *testing.T) {
	view := testView(t, "SPMD", 30, 48)
	if _, err := NewEval(nil); err == nil {
		t.Error("nil view accepted")
	}
	if _, err := NewEval(view, WithWarmupDays(-1)); err == nil {
		t.Error("negative warm-up accepted")
	}
	if _, err := NewEval(view, WithWarmupDays(30)); err == nil {
		t.Error("warm-up beyond trace accepted")
	}
	if _, err := NewEval(view, WithROIFraction(-0.1)); err == nil {
		t.Error("negative ROI accepted")
	}
	if _, err := NewEval(view, WithROIFraction(1)); err == nil {
		t.Error("ROI=1 accepted")
	}
	e, err := NewEval(view, WithWarmupDays(5), WithROIFraction(0.2))
	if err != nil {
		t.Fatal(err)
	}
	if e.WarmupDays() != 5 {
		t.Error("warm-up option not applied")
	}
	if e.View() != view {
		t.Error("View accessor")
	}
}

func TestCheckConfig(t *testing.T) {
	view := testView(t, "SPMD", 30, 48)
	e := newEval(t, view, WithWarmupDays(10))
	if err := e.checkConfig(0, 1); err == nil {
		t.Error("D=0 accepted")
	}
	if err := e.checkConfig(5, 0); err == nil {
		t.Error("K=0 accepted")
	}
	if err := e.checkConfig(5, 49); err == nil {
		t.Error("K>N accepted")
	}
	if err := e.checkConfig(11, 1); err == nil {
		t.Error("D>warmup accepted")
	}
	if err := e.checkConfig(10, 6); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestSweepAlphaValidation(t *testing.T) {
	e := newEval(t, testView(t, "SPMD", 25, 24), WithWarmupDays(10))
	if _, err := e.SweepAlpha(5, 2, nil, RefSlotMean); err == nil {
		t.Error("empty alphas accepted")
	}
	if _, err := e.SweepAlpha(5, 2, []float64{-0.5}, RefSlotMean); err == nil {
		t.Error("alpha out of range accepted")
	}
	if _, err := e.SweepAlpha(5, 2, []float64{math.NaN()}, RefSlotMean); err == nil {
		t.Error("NaN alpha accepted")
	}
}

// TestVectorizedMatchesOnline is the central integration test of the
// package: the prefix-sum fast path must reproduce the online predictor's
// MAPE bit-for-bit (module floating-point association differences) for
// every parameter combination tried.
func TestVectorizedMatchesOnline(t *testing.T) {
	for _, n := range []int{24, 48} {
		view := testView(t, "SPMD", 40, n)
		e := newEval(t, view, WithWarmupDays(12))
		for _, p := range []core.Params{
			{Alpha: 0, D: 3, K: 1},
			{Alpha: 1, D: 3, K: 1},
			{Alpha: 0.7, D: 12, K: 1},
			{Alpha: 0.5, D: 5, K: 3},
			{Alpha: 0.3, D: 12, K: 6},
			{Alpha: 0.9, D: 2, K: 2},
			{Alpha: 0.7, D: 10, K: 2},
		} {
			for _, ref := range []RefKind{RefSlotMean, RefSlotStart} {
				online, err := e.EvaluateOnline(p, ref)
				if err != nil {
					t.Fatalf("N=%d %+v online: %v", n, p, err)
				}
				fast, err := e.SweepAlpha(p.D, p.K, []float64{p.Alpha}, ref)
				if err != nil {
					t.Fatalf("N=%d %+v sweep: %v", n, p, err)
				}
				if online.Samples != fast[0].Samples {
					t.Fatalf("N=%d %+v %v: sample counts differ: %d vs %d",
						n, p, ref, online.Samples, fast[0].Samples)
				}
				if d := math.Abs(online.MAPE - fast[0].MAPE); d > 1e-9 {
					t.Fatalf("N=%d %+v %v: MAPE %v (online) vs %v (vectorized)",
						n, p, ref, online.MAPE, fast[0].MAPE)
				}
				if d := math.Abs(online.RMSE - fast[0].RMSE); d > 1e-6 {
					t.Fatalf("N=%d %+v %v: RMSE diverges", n, p, ref)
				}
			}
		}
	}
}

func TestPairsMatchOnlineReport(t *testing.T) {
	view := testView(t, "ECSU", 35, 24)
	e := newEval(t, view, WithWarmupDays(10))
	p := core.Params{Alpha: 0.6, D: 8, K: 2}
	pairs, err := e.Pairs(p)
	if err != nil {
		t.Fatal(err)
	}
	first, last := e.sourceRange()
	if len(pairs) != last-first+1 {
		t.Fatalf("pairs = %d, want %d", len(pairs), last-first+1)
	}
	online, err := e.EvaluateOnline(p, RefSlotMean)
	if err != nil {
		t.Fatal(err)
	}
	// Recompute MAPE from pairs.
	var sum float64
	var cnt int
	thr := e.Threshold(RefSlotMean)
	for _, pr := range pairs {
		if pr.SlotMean < thr || pr.SlotMean <= 0 {
			continue
		}
		sum += math.Abs(pr.SlotMean-pr.Predicted) / pr.SlotMean
		cnt++
	}
	if cnt != online.Samples {
		t.Fatalf("pair ROI count %d vs online %d", cnt, online.Samples)
	}
	if math.Abs(sum/float64(cnt)-online.MAPE) > 1e-9 {
		t.Error("pair-derived MAPE diverges from online report")
	}
}

func TestMAPEBelowMAPEPrime(t *testing.T) {
	// The paper's Table II headline: scoring against the slot mean (MAPE)
	// yields lower errors than scoring against the point sample (MAPE′)
	// at high-variability sites, because the point sample is noisier.
	view := testView(t, "ORNL", 60, 48)
	e := newEval(t, view)
	p := core.Params{Alpha: 0.7, D: 20, K: 3}
	mean, err := e.EvaluateOnline(p, RefSlotMean)
	if err != nil {
		t.Fatal(err)
	}
	start, err := e.EvaluateOnline(p, RefSlotStart)
	if err != nil {
		t.Fatal(err)
	}
	if mean.MAPE >= start.MAPE {
		t.Errorf("MAPE %.4f should be below MAPE' %.4f on a 1-min variable site", mean.MAPE, start.MAPE)
	}
}

func TestEvaluateBaseline(t *testing.T) {
	view := testView(t, "SPMD", 30, 24)
	e := newEval(t, view, WithWarmupDays(10))

	pers, err := core.NewPersistence(24)
	if err != nil {
		t.Fatal(err)
	}
	persRep, err := e.EvaluateBaseline(pers, RefSlotMean)
	if err != nil {
		t.Fatal(err)
	}
	// Persistence must equal WCMA with α=1 exactly.
	alphaOne, err := e.EvaluateOnline(core.Params{Alpha: 1, D: 2, K: 1}, RefSlotMean)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(persRep.MAPE-alphaOne.MAPE) > 1e-12 {
		t.Errorf("persistence %.6f != WCMA(α=1) %.6f", persRep.MAPE, alphaOne.MAPE)
	}

	wrong, err := core.NewPersistence(48)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.EvaluateBaseline(wrong, RefSlotMean); err == nil {
		t.Error("slot-count mismatch accepted")
	}

	ewma, err := core.NewEWMA(24, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	ewmaRep, err := e.EvaluateBaseline(ewma, RefSlotMean)
	if err != nil {
		t.Fatal(err)
	}
	if ewmaRep.Samples != persRep.Samples {
		t.Error("baselines scored on different sample sets")
	}
}

func TestWCMABeatsEWMABaseline(t *testing.T) {
	// The point of WCMA [5] over EWMA [2]: conditioning on the current
	// day's weather lowers the error on variable sites.
	view := testView(t, "SPMD", 60, 24)
	e := newEval(t, view)
	wcma, err := e.EvaluateOnline(core.Params{Alpha: 0.6, D: 12, K: 2}, RefSlotMean)
	if err != nil {
		t.Fatal(err)
	}
	ew, err := core.NewEWMA(24, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	ewma, err := e.EvaluateBaseline(ew, RefSlotMean)
	if err != nil {
		t.Fatal(err)
	}
	if wcma.MAPE >= ewma.MAPE {
		t.Errorf("WCMA %.4f should beat EWMA %.4f on a variable site", wcma.MAPE, ewma.MAPE)
	}
}

func TestThresholdPerRefKind(t *testing.T) {
	view := testView(t, "SPMD", 25, 24)
	e := newEval(t, view, WithWarmupDays(5))
	if e.Threshold(RefSlotMean) <= 0 || e.Threshold(RefSlotStart) <= 0 {
		t.Error("thresholds must be positive for a sunny trace")
	}
}

// TestROIIndexExact pins the region-of-interest index: for each reference
// kind it holds exactly the scored sources whose reference clears the
// threshold, in ascending order, with no growth slack (len == cap) —
// the index lives as long as the evaluator that owns it.
func TestROIIndexExact(t *testing.T) {
	view := testView(t, "SPMD", 25, 48)
	e := newEval(t, view, WithWarmupDays(5))
	first, last := 5*view.N, view.TotalSlots()-2
	for _, ref := range []RefKind{RefSlotMean, RefSlotStart} {
		roi := e.roi[ref]
		if len(roi.ts) != cap(roi.ts) {
			t.Errorf("%v: len %d != cap %d", ref, len(roi.ts), cap(roi.ts))
		}
		if roi.scored != last-first+1 {
			t.Errorf("%v: scored %d, want %d", ref, roi.scored, last-first+1)
		}
		thr := e.Threshold(ref)
		var want []int32
		for src := first; src <= last; src++ {
			rv := view.Mean[src]
			if ref == RefSlotStart {
				rv = view.Start[src+1]
			}
			if rv >= thr && rv > 0 {
				want = append(want, int32(src))
			}
		}
		if len(want) == 0 || len(want) == roi.scored {
			t.Fatalf("%v: degenerate filter admits %d of %d sources", ref, len(want), roi.scored)
		}
		if len(roi.ts) != len(want) {
			t.Fatalf("%v: index holds %d sources, filter admits %d", ref, len(roi.ts), len(want))
		}
		for i := range want {
			if roi.ts[i] != want[i] {
				t.Fatalf("%v: ts[%d] = %d, want %d", ref, i, roi.ts[i], want[i])
			}
		}
	}
}
