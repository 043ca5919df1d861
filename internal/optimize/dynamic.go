package optimize

import (
	"fmt"
	"math"
	"sort"

	"solarpred/internal/core"
	"solarpred/internal/metrics"
)

// DynamicResult summarises the clairvoyant dynamic-parameter study for
// one trace and sampling rate (one row group of the paper's Table V).
type DynamicResult struct {
	// StaticMAPE is the best static-parameter error (grid minimum).
	StaticMAPE float64
	// StaticParams are the parameters achieving StaticMAPE.
	StaticParams core.Params
	// BothMAPE is the error with both α and K adapted per prediction.
	BothMAPE float64
	// KOnlyMAPE is the error with K adapted at the best fixed α, which is
	// reported in KOnlyAlpha.
	KOnlyMAPE  float64
	KOnlyAlpha float64
	// AlphaOnlyMAPE is the error with α adapted at the best fixed K,
	// which is reported in AlphaOnlyK.
	AlphaOnlyMAPE float64
	AlphaOnlyK    int
}

// DynamicEval runs the paper's Section IV-C clairvoyant study on the
// trace at the evaluator's slotting: at every scored prediction the
// oracle picks, from the grid, the (α, K) — or only K, or only α —
// minimising that prediction's absolute error against the chosen
// reference. D is fixed (the paper uses the Table III optimum; pass the
// same here).
//
// For the single-parameter modes the non-adapted parameter is chosen as
// the fixed value minimising the resulting average error, exactly as the
// paper's Table V reports ("a fixed value of α has been chosen for which
// average error is minimum").
func (e *Eval) DynamicEval(d int, grid core.DynamicGrid, staticBest Cell, ref RefKind) (*DynamicResult, error) {
	if err := grid.Validate(); err != nil {
		return nil, err
	}
	kMax := maxOf(grid.Ks) // the grid need not be sorted
	if err := e.checkConfig(d, kMax); err != nil {
		return nil, err
	}

	threshold := e.Threshold(ref)
	newAcc := func() *metrics.Accumulator {
		a, _ := metrics.NewAccumulator(threshold)
		return a
	}

	// Accumulators: one for full adaptation, one per fixed α (K adapted),
	// one per fixed K (α adapted).
	both := newAcc()
	perAlpha := make([]*metrics.Accumulator, len(grid.Alphas))
	for i := range perAlpha {
		perAlpha[i] = newAcc()
	}
	perK := make([]*metrics.Accumulator, len(grid.Ks))
	for i := range perK {
		perK[i] = newAcc()
	}

	// The α minimisations exploit that ê(α) is affine in α up to the zero
	// clamp, so the per-prediction argmin over a sorted grid is one of the
	// two alphas bracketing the exact minimiser (see bestAlphaPick). Sort
	// a copy if the caller's grid isn't already ascending.
	sortedAlphas := grid.Alphas
	if !sort.Float64sAreSorted(sortedAlphas) {
		sortedAlphas = append([]float64(nil), grid.Alphas...)
		sort.Float64s(sortedAlphas)
	}

	// The clairvoyant selector only ever scores in-ROI predictions, so —
	// like sweepBlockMulti — the scan visits only the precomputed ROI
	// index: the rolling ΦK windows slide in O(1) within each contiguous
	// scored run and re-initialise directly at run starts and day
	// boundaries, skipping night gaps entirely. The per-D η cache is
	// shared across every K of the grid, like the grid search.
	sc := e.getScratch()
	defer e.putScratch(sc)
	e.fillEtas(sc, d, kMax)
	nk := len(grid.Ks)
	if cap(sc.conds) < 2*nk {
		sc.conds = make([]float64, 2*nk)
	}
	// conds holds each K's conditioned term, picks the prediction of its
	// best α: one bestAlphaPick per (prediction, K) feeds both the full
	// adaptation and that K's α-only accumulator.
	conds, picks := sc.conds[:nk], sc.conds[nk:2*nk]
	sc.rollSetup(grid.Ks)

	n := e.view.N
	invD := 1 / float64(d)
	span := d * n
	roi := &e.roi[ref]
	ts := roi.ts
	dayStart := 0
	prev := -2 // never adjacent to the first scored source
	for ri := range ts {
		t := int(ts[ri])
		if t == prev+1 && t != dayStart+n {
			sc.rollSlide(t, dayStart, grid.Ks)
		} else {
			dayStart = (t / n) * n
			sc.rollInitAt(t, dayStart, grid.Ks)
		}
		prev = t
		pers := e.view.Start[t]
		mu := e.muNext(t, dayStart, span, invD)
		for ki := range grid.Ks {
			conds[ki] = mu * sc.rollPhi(ki)
		}
		refVal := e.reference(ref, t)
		invRef := 1 / refVal

		// Full adaptation: best α per K via the bracket pick, then min
		// over K.
		bestBoth := math.Inf(1)
		var bestBothPred float64
		for ki := range grid.Ks {
			err, pred := bestAlphaPick(sortedAlphas, pers, conds[ki], refVal)
			picks[ki] = pred
			if err < bestBoth {
				bestBoth, bestBothPred = err, pred
			}
		}
		both.AddInROI(bestBothPred, refVal, invRef)

		// K adapted at each fixed α: K has no bracketing structure, so
		// this stays a direct minimisation over the (short) K grid.
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

		// α adapted at each fixed K.
		for ki, pred := range picks {
			perK[ki].AddInROI(pred, refVal, invRef)
		}
	}
	outside := roi.scored - len(roi.ts)
	both.AddOutsideROI(outside)
	for _, acc := range perAlpha {
		acc.AddOutsideROI(outside)
	}
	for _, acc := range perK {
		acc.AddOutsideROI(outside)
	}

	res := &DynamicResult{
		StaticMAPE:   staticBest.Report.MAPE,
		StaticParams: staticBest.Params,
		BothMAPE:     both.MAPE(),
	}
	res.KOnlyMAPE = math.Inf(1)
	for ai, acc := range perAlpha {
		if m := acc.MAPE(); m < res.KOnlyMAPE {
			res.KOnlyMAPE = m
			res.KOnlyAlpha = grid.Alphas[ai]
		}
	}
	res.AlphaOnlyMAPE = math.Inf(1)
	for ki, acc := range perK {
		if m := acc.MAPE(); m < res.AlphaOnlyMAPE {
			res.AlphaOnlyMAPE = m
			res.AlphaOnlyK = grid.Ks[ki]
		}
	}
	return res, nil
}

// bestAlphaPick returns the minimum |ref − Combine(α, pers, cond)| over
// an ascending α grid together with the prediction achieving it. The
// prediction cond + α·(pers − cond) is affine in α up to the zero clamp
// (constant where clamped), so |err(α)| is weakly unimodal with its
// valley at the exact minimiser α* = (ref − cond)/(pers − cond): the
// grid argmin is one of the two grid alphas bracketing α*, found in
// O(log |alphas|) instead of a full scan. Ties between the bracket
// endpoints resolve to the lower α; both give the same |err|, which is
// all the per-mode MAPE aggregation consumes.
func bestAlphaPick(alphas []float64, pers, cond, refVal float64) (bestErr, bestPred float64) {
	m := pers - cond
	if m == 0 {
		// The prediction is independent of α.
		pred := core.Combine(alphas[0], pers, cond)
		return math.Abs(refVal - pred), pred
	}
	astar := (refVal - cond) / m
	j := searchAscending(alphas, astar)
	lo := j - 1
	if lo < 0 {
		lo = 0
	}
	hi := j
	if hi > len(alphas)-1 {
		hi = len(alphas) - 1
	}
	bestPred = core.Combine(alphas[lo], pers, cond)
	bestErr = math.Abs(refVal - bestPred)
	if hi != lo {
		if pred := core.Combine(alphas[hi], pers, cond); math.Abs(refVal-pred) < bestErr {
			bestErr, bestPred = math.Abs(refVal-pred), pred
		}
	}
	return bestErr, bestPred
}

// searchAscending returns the first index with alphas[j] ≥ x (len(alphas)
// if none): a branch-predictable linear scan for the short grids the
// paper's spaces use, binary search above.
func searchAscending(alphas []float64, x float64) int {
	if len(alphas) > 16 {
		return sort.SearchFloat64s(alphas, x)
	}
	j := 0
	for j < len(alphas) && alphas[j] < x {
		j++
	}
	return j
}

// Check verifies the clairvoyant dominance invariants that must hold by
// construction: full adaptation ≤ single-parameter adaptation ≤ static.
// It returns an error naming the first violated invariant (allowing for
// tiny floating-point slack).
func (r *DynamicResult) Check() error {
	const eps = 1e-9
	if r.BothMAPE > r.KOnlyMAPE+eps {
		return fmt.Errorf("optimize: K+α error %.6f exceeds K-only %.6f", r.BothMAPE, r.KOnlyMAPE)
	}
	if r.BothMAPE > r.AlphaOnlyMAPE+eps {
		return fmt.Errorf("optimize: K+α error %.6f exceeds α-only %.6f", r.BothMAPE, r.AlphaOnlyMAPE)
	}
	if r.KOnlyMAPE > r.StaticMAPE+eps {
		return fmt.Errorf("optimize: K-only error %.6f exceeds static %.6f", r.KOnlyMAPE, r.StaticMAPE)
	}
	if r.AlphaOnlyMAPE > r.StaticMAPE+eps {
		return fmt.Errorf("optimize: α-only error %.6f exceeds static %.6f", r.AlphaOnlyMAPE, r.StaticMAPE)
	}
	return nil
}
