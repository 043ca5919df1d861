package optimize

import (
	"fmt"
	"math"
	"slices"

	"solarpred/internal/adaptive"
	"solarpred/internal/core"
	"solarpred/internal/metrics"
)

// AdaptiveResult scores one realizable selection policy on a trace.
type AdaptiveResult struct {
	Policy string
	Report metrics.Report
	// SwitchCount is how many times the policy changed its candidate —
	// a proxy for actuation churn on a real node.
	SwitchCount int
	// FinalCandidate is the arm in use at the end of the run.
	FinalCandidate adaptive.Candidate
}

// AdaptiveEval runs a realizable dynamic-parameter policy over the trace
// at history depth d: at every scored slot the policy picks a candidate
// (α, K) BEFORE the truth arrives, the prediction is scored like every
// other evaluator path, and afterwards the policy observes the loss all
// candidates would have suffered (full-information feedback — Eq. 1 is
// cheap to evaluate for the whole grid once its terms are known).
//
// This is the realizable counterpart of DynamicEval's clairvoyant
// oracle: same grid, same scoring, but the choice uses only past
// information, so it could run on the node as-is.
func (e *Eval) AdaptiveEval(d int, cands []adaptive.Candidate, sel adaptive.Selector, ref RefKind) (*AdaptiveResult, error) {
	res, err := e.AdaptiveEvalMulti(d, cands, []adaptive.Selector{sel}, ref)
	if err != nil {
		return nil, err
	}
	return &res[0], nil
}

// AdaptiveEvalMulti runs several policies over one pass of the trace,
// returning one result per selector in order, each the same as its own
// AdaptiveEval. The candidates' Eq. 1 terms and the full-information loss
// vector are computed once per slot and fed to every selector (selectors
// only read the losses). sels must be distinct instances.
func (e *Eval) AdaptiveEvalMulti(d int, cands []adaptive.Candidate, sels []adaptive.Selector, ref RefKind) ([]AdaptiveResult, error) {
	if len(cands) == 0 {
		return nil, fmt.Errorf("optimize: no candidates")
	}
	maxK := 1
	for _, c := range cands {
		if c.Alpha < 0 || c.Alpha > 1 || c.K < 1 {
			return nil, fmt.Errorf("optimize: invalid candidate %+v", c)
		}
		if c.K > maxK {
			maxK = c.K
		}
	}
	if err := e.checkConfig(d, maxK); err != nil {
		return nil, err
	}
	accs := make([]*metrics.Accumulator, len(sels))
	for i, sel := range sels {
		acc, err := metrics.NewAccumulator(e.Threshold(ref))
		if err != nil {
			return nil, err
		}
		accs[i] = acc
		sel.Reset()
	}

	// Distinct K values so Φ is computed once per K, not per candidate;
	// candK[i] indexes cands[i]'s K in ks.
	var ks []int
	candK := make([]int, len(cands))
	for i, c := range cands {
		j := slices.Index(ks, c.K)
		if j < 0 {
			j = len(ks)
			ks = append(ks, c.K)
		}
		candK[i] = j
	}
	conds := make([]float64, len(ks))
	losses := make([]float64, len(cands))
	lossFloor := e.Threshold(ref) / 2 // keeps night losses O(1)

	// Unlike the grid sweeps, a policy's state advances on every slot, so
	// the loop cannot skip out-of-ROI sources — the rolling ΦK windows
	// slide in O(1) per slot per distinct K over the shared per-D η cache.
	// The windows are re-initialised directly at day boundaries and at the
	// start of every in-ROI run — the exact re-init points of
	// sweepBlockMulti — so the scored window states are bit-identical to
	// the grid sweeps' (a single-candidate policy reproduces SweepAlpha to
	// association tolerance; the aggregation orders differ — see the
	// README's kernel notes); between runs the slides keep Φ current for
	// the full-information feedback.
	sc := e.getScratch()
	defer e.putScratch(sc)
	e.fillEtas(sc, d, maxK)
	sc.rollSetup(ks)

	n := e.view.N
	invD := 1 / float64(d)
	span := d * n
	thr := e.Threshold(ref)
	first, last := e.sourceRange()
	res := make([]AdaptiveResult, len(sels))
	prevChoice := make([]int, len(sels))
	for i, sel := range sels {
		res[i].Policy = sel.Name()
		prevChoice[i] = -1
	}
	prevInROI := false
	dayStart := first // first is day-aligned (warmupDays·N)
	for t := first; t <= last; t++ {
		refVal := e.reference(ref, t)
		inROI := refVal >= thr && refVal > 0
		if t%n == 0 || (inROI && !prevInROI) {
			dayStart = (t / n) * n
			sc.rollInitAt(t, dayStart, ks)
		} else {
			sc.rollSlide(t, dayStart, ks)
		}
		prevInROI = inROI
		pers := e.view.Start[t]
		mu := e.muNext(t, dayStart, span, invD)
		for i := range ks {
			conds[i] = mu * sc.rollPhi(i)
		}
		for i, sel := range sels {
			choice := sel.Choose()
			if choice < 0 || choice >= len(cands) {
				return nil, fmt.Errorf("optimize: policy %s chose out-of-range arm %d", sel.Name(), choice)
			}
			if choice != prevChoice[i] {
				if prevChoice[i] >= 0 {
					res[i].SwitchCount++
				}
				prevChoice[i] = choice
			}
			accs[i].Add(core.Combine(cands[choice].Alpha, pers, conds[candK[choice]]), refVal)
		}

		// Full-information feedback for every candidate.
		for i, c := range cands {
			p := core.Combine(c.Alpha, pers, conds[candK[i]])
			losses[i] = adaptive.LossScale(math.Abs(refVal-p), refVal, lossFloor)
		}
		for _, sel := range sels {
			sel.Update(losses)
		}
	}
	for i := range res {
		res[i].Report = accs[i].Snapshot()
		if prevChoice[i] >= 0 {
			res[i].FinalCandidate = cands[prevChoice[i]]
		}
	}
	return res, nil
}
