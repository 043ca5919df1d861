package optimize

import (
	"math"
	"testing"

	"solarpred/internal/core"
	"solarpred/internal/metrics"
)

// mu returns μD(j) as seen from source day d — the mean of slot j's
// slot-start samples over days [d−D, d) — indexed by day and slot,
// independently of the prefix-row arithmetic of muAt. The reference
// implementations below read μD through it.
func (e *Eval) mu(d, j, D int, invD float64) float64 {
	n := e.view.N
	return (e.prefix[d*n+j] - e.prefix[(d-D)*n+j]) * invD
}

// directSweepBlock is the retired O(|ROI|·(K + |alphas|)) sweep the
// rolling kernel replaced: ΦK recomputed per prediction by the direct
// window walk (phiCached) and one Accumulator per α. It is kept here as
// the reference implementation the rolling + linear-accumulator path is
// verified against.
func directSweepBlock(t testing.TB, e *Eval, D, K int, alphas []float64, ref RefKind) []metrics.Report {
	t.Helper()
	sc := e.getScratch()
	defer e.putScratch(sc)
	e.fillEtas(sc, D, K)
	thetas, den := buildThetas(make([]float64, K), K)
	accs := make([]metrics.Accumulator, len(alphas))
	for i := range accs {
		acc, err := metrics.MakeAccumulator(e.Threshold(ref))
		if err != nil {
			t.Fatal(err)
		}
		accs[i] = acc
	}
	roi := &e.roi[ref]
	n := e.view.N
	for _, t32 := range roi.ts {
		tt := int(t32)
		d := tt / n
		pers := e.view.Start[tt]
		cond := e.mu(d, (tt+1)%n, D, 1/float64(D)) * e.phiCached(sc, tt, K, thetas, den)
		refVal := e.reference(ref, tt)
		invRef := 1 / refVal
		for ai, a := range alphas {
			accs[ai].AddInROI(core.Combine(a, pers, cond), refVal, invRef)
		}
	}
	outside := roi.scored - len(roi.ts)
	out := make([]metrics.Report, len(alphas))
	for ai := range accs {
		accs[ai].AddOutsideROI(outside)
		out[ai] = accs[ai].Snapshot()
	}
	return out
}

// reportsClose compares two report slices field by field within the
// association tolerance the package pins (1e-9 scaled).
func reportsClose(t testing.TB, label string, got, want []metrics.Report) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d reports, want %d", label, len(got), len(want))
	}
	close := func(g, w float64) bool {
		return g == w || math.Abs(g-w) <= 1e-9*(math.Abs(w)+1)
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Samples != w.Samples || g.OutsideROI != w.OutsideROI {
			t.Fatalf("%s α[%d]: counts (%d,%d), want (%d,%d)",
				label, i, g.Samples, g.OutsideROI, w.Samples, w.OutsideROI)
		}
		if !close(g.MAPE, w.MAPE) || !close(g.RMSE, w.RMSE) || !close(g.MAE, w.MAE) ||
			!close(g.MBE, w.MBE) || !close(g.MaxAbsErr, w.MaxAbsErr) {
			t.Fatalf("%s α[%d]:\n got %+v\nwant %+v", label, i, g, w)
		}
	}
}

// TestSweepBlockMatchesDirect pins the tentpole equivalence: the rolling
// ΦK scan + AlphaSweep accumulator must reproduce the direct per-ROI
// window walk + accumulator bank on every report field, for window sizes
// from one slot to a full day and under both error definitions.
func TestSweepBlockMatchesDirect(t *testing.T) {
	view := testView(t, "SPMD", 40, 24)
	e := newEval(t, view, WithWarmupDays(12))
	grids := map[string][]float64{
		"paper":    {0, 0.2, 0.4, 0.6, 0.8, 1},
		"unsorted": {0.7, 0.1, 1, 0, 0.7, 0.3},
		"single":   {0.5},
	}
	for _, ref := range []RefKind{RefSlotMean, RefSlotStart} {
		for _, D := range []int{2, 5, 12} {
			for _, K := range []int{1, 2, 3, 6, 24} {
				for name, alphas := range grids {
					got, err := e.SweepAlpha(D, K, alphas, ref)
					if err != nil {
						t.Fatal(err)
					}
					want := directSweepBlock(t, e, D, K, alphas, ref)
					reportsClose(t, ref.String()+"/"+name, got, want)
				}
			}
		}
	}
}

// directDynamicEval is the retired clairvoyant oracle: per-prediction
// exhaustive minimisation over the whole (α, K) grid through the direct
// ΦK walk. DynamicEval's rolling + bracket-pick path must agree on every
// reported error.
func directDynamicEval(t testing.TB, e *Eval, d int, grid core.DynamicGrid, ref RefKind) (both float64, kOnly []float64, alphaOnly []float64) {
	t.Helper()
	kMax := maxOf(grid.Ks)
	threshold := e.Threshold(ref)
	newAcc := func() *metrics.Accumulator {
		a, err := metrics.NewAccumulator(threshold)
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	bothAcc := newAcc()
	perAlpha := make([]*metrics.Accumulator, len(grid.Alphas))
	for i := range perAlpha {
		perAlpha[i] = newAcc()
	}
	perK := make([]*metrics.Accumulator, len(grid.Ks))
	for i := range perK {
		perK[i] = newAcc()
	}
	sc := e.getScratch()
	defer e.putScratch(sc)
	e.fillEtas(sc, d, kMax)
	thetaByK := make([][]float64, len(grid.Ks))
	denByK := make([]float64, len(grid.Ks))
	for ki, k := range grid.Ks {
		thetaByK[ki], denByK[ki] = buildThetas(make([]float64, k), k)
	}
	conds := make([]float64, len(grid.Ks))
	n := e.view.N
	roi := &e.roi[ref]
	for _, t32 := range roi.ts {
		tt := int(t32)
		day := tt / n
		pers := e.view.Start[tt]
		mu := e.mu(day, (tt+1)%n, d, 1/float64(d))
		for ki, k := range grid.Ks {
			conds[ki] = mu * e.phiCached(sc, tt, k, thetaByK[ki], denByK[ki])
		}
		refVal := e.reference(ref, tt)
		invRef := 1 / refVal
		bestBoth := math.Inf(1)
		var bestBothPred float64
		for ki := range grid.Ks {
			for _, a := range grid.Alphas {
				pred := core.Combine(a, pers, conds[ki])
				if err := math.Abs(refVal - pred); err < bestBoth {
					bestBoth, bestBothPred = err, pred
				}
			}
		}
		bothAcc.AddInROI(bestBothPred, refVal, invRef)
		for ai, a := range grid.Alphas {
			best := math.Inf(1)
			var bestPred float64
			for ki := range grid.Ks {
				pred := core.Combine(a, pers, conds[ki])
				if err := math.Abs(refVal - pred); err < best {
					best, bestPred = err, pred
				}
			}
			perAlpha[ai].AddInROI(bestPred, refVal, invRef)
		}
		for ki := range grid.Ks {
			best := math.Inf(1)
			var bestPred float64
			for _, a := range grid.Alphas {
				pred := core.Combine(a, pers, conds[ki])
				if err := math.Abs(refVal - pred); err < best {
					best, bestPred = err, pred
				}
			}
			perK[ki].AddInROI(bestPred, refVal, invRef)
		}
	}
	kOnly = make([]float64, len(grid.Alphas))
	for ai := range perAlpha {
		kOnly[ai] = perAlpha[ai].MAPE()
	}
	alphaOnly = make([]float64, len(grid.Ks))
	for ki := range perK {
		alphaOnly[ki] = perK[ki].MAPE()
	}
	return bothAcc.MAPE(), kOnly, alphaOnly
}

// TestDynamicEvalMatchesDirectOracle verifies the bracketed α argmin and
// the rolling multi-K windows reproduce the exhaustive clairvoyant
// minimisation, including on an unsorted α grid.
func TestDynamicEvalMatchesDirectOracle(t *testing.T) {
	view := testView(t, "NPCS", 40, 24)
	e := newEval(t, view, WithWarmupDays(12))
	grids := []core.DynamicGrid{
		core.DefaultDynamicGrid(),
		{Alphas: []float64{0.8, 0.2, 0, 1, 0.5}, Ks: []int{3, 1, 6}},
	}
	for _, grid := range grids {
		for _, ref := range []RefKind{RefSlotMean, RefSlotStart} {
			res, err := e.DynamicEval(10, grid, Cell{}, ref)
			if err != nil {
				t.Fatal(err)
			}
			wantBoth, wantKOnly, wantAlphaOnly := directDynamicEval(t, e, 10, grid, ref)
			close := func(g, w float64) bool { return math.Abs(g-w) <= 1e-9*(math.Abs(w)+1) }
			if !close(res.BothMAPE, wantBoth) {
				t.Fatalf("%s: BothMAPE %v, direct %v", ref, res.BothMAPE, wantBoth)
			}
			bestK, bestAlphaIdx := math.Inf(1), -1
			for ai, m := range wantKOnly {
				if m < bestK {
					bestK, bestAlphaIdx = m, ai
				}
			}
			if !close(res.KOnlyMAPE, bestK) || res.KOnlyAlpha != grid.Alphas[bestAlphaIdx] {
				t.Fatalf("%s: KOnly (%v @ α=%v), direct (%v @ α=%v)",
					ref, res.KOnlyMAPE, res.KOnlyAlpha, bestK, grid.Alphas[bestAlphaIdx])
			}
			bestA, bestKIdx := math.Inf(1), -1
			for ki, m := range wantAlphaOnly {
				if m < bestA {
					bestA, bestKIdx = m, ki
				}
			}
			if !close(res.AlphaOnlyMAPE, bestA) || res.AlphaOnlyK != grid.Ks[bestKIdx] {
				t.Fatalf("%s: AlphaOnly (%v @ K=%d), direct (%v @ K=%d)",
					ref, res.AlphaOnlyMAPE, res.AlphaOnlyK, bestA, grid.Ks[bestKIdx])
			}
		}
	}
}

// TestBestAlphaPickMatchesScan checks the bracket pick against a full
// scan on adversarial term combinations: breakpoints inside, outside and
// exactly on the grid, both slope signs, and clamped regions.
func TestBestAlphaPickMatchesScan(t *testing.T) {
	alphas := []float64{0, 0.2, 0.4, 0.6, 0.8, 1}
	cases := []struct{ pers, cond, ref float64 }{
		{100, 200, 150}, {200, 100, 150}, {100, 100, 150},
		{0, 500, 100}, {500, 0, 100}, {100, 200, 400},
		{400, 200, 100}, {100, 200, 160}, // α* = 0.4 exactly on the grid
		{0, 0, 50}, {1200, 3, 7}, {3, 1200, 7},
	}
	for _, c := range cases {
		gotErr, gotPred := bestAlphaPick(alphas, c.pers, c.cond, c.ref)
		wantErr := math.Inf(1)
		var wantPred float64
		for _, a := range alphas {
			pred := core.Combine(a, c.pers, c.cond)
			if err := math.Abs(c.ref - pred); err < wantErr {
				wantErr, wantPred = err, pred
			}
		}
		if gotErr != wantErr {
			t.Fatalf("pick(%+v): err %v, scan %v", c, gotErr, wantErr)
		}
		if math.Abs(c.ref-gotPred) != wantErr {
			t.Fatalf("pick(%+v): pred %v does not achieve scan err %v", c, gotPred, wantPred)
		}
	}
}
