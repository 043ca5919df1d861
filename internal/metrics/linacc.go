package metrics

import (
	"fmt"
	"math"
	"sort"
)

// AlphaSweep scores a stream of predictions against an entire grid of α
// blend weights at once, in O(log |alphas|) amortised work per
// prediction instead of the |alphas| accumulator updates a bank of
// Accumulators needs. It is the linear-accumulator backend of the
// vectorized α sweeps in internal/optimize.
//
// It exploits that Eq. 1 predictions are affine in α: with pers the
// persistence term and cond the conditioned-average term, the signed
// error against a reference is
//
//	err(α) = ref − (α·pers + (1−α)·cond) = c + m·α,
//	c = ref − cond,  m = cond − pers,
//
// so every aggregate a Report carries is recoverable in closed form:
//
//   - MBE and RMSE come from the global sums Σc, Σm, Σc², Σcm, Σm²
//     (Σ err(α) = Σc + α·Σm and Σ err(α)² = Σc² + 2α·Σcm + α²·Σm²);
//   - |err(α)| is piecewise linear in α with a single breakpoint at
//     α* = −c/m, so each prediction's (c, m) pair — and its
//     1/ref-weighted copy for MAPE — is bucketed into the sorted-α
//     interval containing α*, split by the sign of the slope m; prefix
//     sums over the buckets at report time then yield Σ|err| and
//     Σ|err|/ref for every α at once;
//   - max |err(α)| uses the convexity of |c + m·α|: its maximum over
//     any α interval sits at an endpoint, so a prediction whose two
//     grid-endpoint errors cannot beat the smallest current per-α
//     maximum is skipped entirely (the common case); the rare survivors
//     update every α directly.
//
// Predictions arrive in batches (AddInROIBatch): the kernel keeps the
// running sums in locals for the whole batch, indexes one bucket array
// by the slope's sign bit instead of branching on it, and skips the
// breakpoint count outright when the two grid-endpoint errors are
// nonzero and of one sign (see AddInROIBatch). Every accumulator still
// receives its additions one prediction at a time in stream order, so
// the Reports do not depend on how a stream is cut into batches and
// match the one-at-a-time update bit for bit.
//
// The affine model means AlphaSweep does not apply the zero clamp of
// core.Combine. Callers must therefore pass pers, cond ≥ 0 — true for
// the predictor, whose terms are built from nonnegative powers — which
// keeps the clamp inert. Relative to a bank of direct Accumulators the
// reordered accumulation differs only by floating-point association,
// bounded orders of magnitude below the 1e-9 tolerance the golden suite
// pins (see the README's kernel notes for the drift analysis). NaN
// inputs are a programming error, as everywhere in this package.
type AlphaSweep struct {
	orig   []float64 // caller's α grid, caller order
	sorted []float64 // ascending copy
	perm   []int     // perm[i] = index in orig of sorted[i]
	lo, hi float64   // grid endpoints, where the convex |err(α)| peaks

	// Per-bucket slope/intercept sums, indexed by the breakpoint bucket
	// b = #(sorted alphas < α*) ∈ [0, len(sorted)] plus, for m < 0, one
	// row offset of len(sorted)+1: row 0 holds the m > 0 predictions,
	// row 1 the m < 0 ones. A last spill bucket takes the slope-free
	// predictions so the bucket pass needs no branch; it is never read.
	// Each bucket keeps its four sums adjacent (one cache line, one
	// bounds check per update); the w-prefixed pair carries the 1/ref
	// weight for MAPE.
	buckets []bucket

	// Slope-free predictions (m == 0) contribute |c| at every α.
	baseAbs, baseWAbs float64

	// Global sums shared by every α.
	n                               int
	sumC, sumM, sumCC, sumCM, sumMM float64

	// Per-sorted-α running maximum of |err| and its floor (the minimum
	// over alphas), used to prune the maximum-tracking scan.
	maxAbs   []float64
	maxFloor float64

	outsideROI int

	reports []Report // scratch reused by Reports
}

// bucket is one breakpoint bucket of an AlphaSweep: the plain and
// 1/ref-weighted (c, m) sums of the predictions whose |err| kink falls
// in this sorted-α interval.
type bucket struct {
	c, m, wc, wm float64
}

// NewAlphaSweep creates a sweep accumulator for the given α grid, which
// may be unsorted and may contain duplicates; Reports are returned
// index-aligned with it. The grid must be non-empty and free of NaN.
func NewAlphaSweep(alphas []float64) (*AlphaSweep, error) {
	a := &AlphaSweep{}
	if err := a.Reconfigure(alphas); err != nil {
		return nil, err
	}
	return a, nil
}

// Reconfigure resets the accumulator for a (possibly different) α grid,
// reusing the existing buffers when the grid shape allows. It always
// clears the accumulated state.
func (a *AlphaSweep) Reconfigure(alphas []float64) error {
	if len(alphas) == 0 {
		return fmt.Errorf("metrics: empty alpha grid")
	}
	for _, al := range alphas {
		if math.IsNaN(al) || math.IsInf(al, 0) {
			return fmt.Errorf("metrics: alpha %v not finite", al)
		}
	}
	if !floatsEqual(a.orig, alphas) {
		na := len(alphas)
		a.orig = append(a.orig[:0], alphas...)
		if cap(a.sorted) < na {
			a.sorted = make([]float64, na)
			a.perm = make([]int, na)
			a.maxAbs = make([]float64, na)
			a.reports = make([]Report, na)
			a.buckets = make([]bucket, 2*(na+1)+1)
		}
		a.sorted = a.sorted[:na]
		a.perm = a.perm[:na]
		a.maxAbs = a.maxAbs[:na]
		a.reports = a.reports[:na]
		a.buckets = a.buckets[:2*(na+1)+1]
		for i := range a.perm {
			a.perm[i] = i
		}
		// Stable so duplicate alphas keep a deterministic permutation.
		sort.SliceStable(a.perm, func(i, j int) bool {
			return a.orig[a.perm[i]] < a.orig[a.perm[j]]
		})
		for i, p := range a.perm {
			a.sorted[i] = a.orig[p]
		}
		a.lo, a.hi = a.sorted[0], a.sorted[len(a.sorted)-1]
	}
	a.Reset()
	return nil
}

// Reset clears the accumulated state, keeping the α grid.
func (a *AlphaSweep) Reset() {
	for i := range a.buckets {
		a.buckets[i] = bucket{}
	}
	for i := range a.maxAbs {
		a.maxAbs[i] = 0
	}
	a.baseAbs, a.baseWAbs = 0, 0
	a.n, a.outsideROI = 0, 0
	a.sumC, a.sumM, a.sumCC, a.sumCM, a.sumMM = 0, 0, 0, 0, 0
	a.maxFloor = 0
}

// floatsEqual reports element-wise equality (no NaN handling needed:
// grids with NaN are rejected before they can be stored).
func floatsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// bucketOf returns the number of sorted alphas s strictly below the
// breakpoint α* = −c/m (m ≠ 0), evaluated without the division: for
// m > 0, s < −c/m ⟺ c + m·s < 0, and negating both coefficients folds
// the m < 0 case into the same test. Narrow grids count sign bits in a
// branchless pass — the boundary position is data-dependent, so an
// early-exit scan mispredicts almost every sample — while wide grids
// binary-search the prefix-monotone predicate. The multiply form can
// disagree with the divided form by one bucket when c + m·s rounds
// across zero, which perturbs the reconstructed |err| at that single α
// by an amount on the order of the (near-zero) error itself — far
// inside the package's association tolerance.
//
// bucketOf defines the bucket. AddInROIBatch calls it for every
// prediction whose endpoint errors do not settle the bucket on their own.
func bucketOf(s []float64, c, m float64) int {
	if m < 0 {
		c, m = -c, -m
	}
	if len(s) > 16 {
		return bucketWide(s, c, m)
	}
	b := 0
	for _, al := range s {
		b += int(math.Float64bits(c+m*al) >> 63)
	}
	return b
}

// bucketWide binary-searches the first sorted α with c + m·α ≥ 0
// (m > 0), the bucket boundary for grids too wide for the linear count.
func bucketWide(s []float64, c, m float64) int {
	lo, hi := 0, len(s)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if c+m*s[mid] < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// AddInROIBatch scores the prediction families ê(α) = α·pers[i] +
// (1−α)·cond[i], for every α of the grid at once, against references
// the caller has already established to be inside the region of
// interest (positive and ≥ threshold), with their reciprocals hoisted
// like Accumulator.AddInROI. The four slices must have equal lengths.
// Feeding a stream in any number of batches gives bit-identical
// Reports.
//
// The batch is scored in blocks of SweepBatch predictions, each in three
// passes. The first keeps the global sums, the slope-free sums and the
// running maxima in locals, records each prediction's bucket when the
// endpoint errors settle it, and queues the rest; the second counts the
// queued predictions' buckets with bucketOf; the third adds every
// prediction into its bucket. Splitting them keeps the unpredictable
// "does this one need a count" decision off the branch predictor, and
// lets the bucket addresses of the last pass resolve early instead of
// waiting on a count while later predictions' loads guess whether they
// alias the pending store. Each sum is updated by one pass only, in
// stream order, so it receives the same additions in the same order as
// one prediction at a time.
//
// The same-sign shortcut gives the bucket bucketOf defines. Rounding is
// monotone, so with m' = |m| and c' = ±c the matching sign,
// fl(c' + fl(m'·s)) is nondecreasing in s. When both grid-endpoint
// errors (already computed for the max prune) are nonzero and share a
// sign, every α's error lies between them and has that sign too,
// negated or not, so the bucket is 0 or len(sorted) and follows from two
// sign bits. A zero endpoint is excluded: fl(x − x) is +0 for either
// sign of x, so negation does not commute with rounding at zero and the
// sign bit of a zero error says nothing about its neighbours.
func (a *AlphaSweep) AddInROIBatch(pers, cond, ref, invRef []float64) {
	if len(cond) != len(pers) || len(ref) != len(pers) || len(invRef) != len(pers) {
		panic("metrics: AddInROIBatch slice lengths differ")
	}
	for len(pers) > SweepBatch {
		a.addBlock(pers[:SweepBatch], cond[:SweepBatch], ref[:SweepBatch], invRef[:SweepBatch])
		pers, cond, ref, invRef = pers[SweepBatch:], cond[SweepBatch:], ref[SweepBatch:], invRef[SweepBatch:]
	}
	a.addBlock(pers, cond, ref, invRef)
}

// SweepBatch is the number of predictions AddInROIBatch scores at once;
// their bucket indices and count queue live on the stack. Callers that
// stage predictions for the kernel size their chunks by it, so no chunk
// is split.
const SweepBatch = 64

// addBlock is AddInROIBatch for at most SweepBatch predictions.
func (a *AlphaSweep) addBlock(pers, cond, ref, invRef []float64) {
	var slotBuf, queueBuf [SweepBatch]int32
	slots, queue := slotBuf[:len(pers)], queueBuf[:len(pers)]
	nq := 0
	s := a.sorted
	na := len(s)
	lo, hi := a.lo, a.hi
	floor := a.maxFloor
	sumC, sumM, sumCC, sumCM, sumMM := a.sumC, a.sumM, a.sumCC, a.sumCM, a.sumMM
	baseAbs, baseWAbs := a.baseAbs, a.baseWAbs
	for i, p := range pers {
		c := ref[i] - cond[i]
		m := cond[i] - p
		sumC += c
		sumM += m
		sumCC += c * c
		sumCM += c * m
		sumMM += m * m
		// |c + m·α| is convex, so its maximum over the sorted grid is
		// attained at an endpoint; when neither endpoint beats the
		// smallest current per-α maximum no maxAbs entry can change and
		// the scan is skipped. The prune is exact (no bound slack), so
		// maxAbs is bit-identical to the unpruned scan.
		el, eh := c+m*lo, c+m*hi
		if math.Abs(el) > floor || math.Abs(eh) > floor {
			floor = a.updateMax(c, m)
		}
		if m == 0 {
			absC := math.Abs(c)
			baseAbs += absC
			baseWAbs += invRef[i] * absC
			slots[i] = int32(2 * (na + 1)) // the spill bucket, never read
			continue
		}
		// Record the same-sign bucket, and queue the prediction for the
		// count unless both endpoint errors are nonzero and of one sign
		// (an underflowing product is just counted). On amd64 the append
		// compiles to a conditional move, not a branch.
		neg := int(math.Float64bits(m) >> 63)
		slots[i] = int32(na*(int(math.Float64bits(el)>>63)^neg) + neg*(na+1))
		queue[nq] = int32(i)
		if !(el*eh > 0) {
			nq++
		}
	}
	for _, i := range queue[:nq] {
		m := cond[i] - pers[i]
		neg := int(math.Float64bits(m) >> 63)
		slots[i] = int32(bucketOf(s, ref[i]-cond[i], m) + neg*(na+1))
	}
	buckets := a.buckets[:2*(na+1)+1]
	for i, b := range slots {
		w := invRef[i]
		c := ref[i] - cond[i]
		m := cond[i] - pers[i]
		bk := &buckets[b]
		bk.c += c
		bk.m += m
		bk.wc += w * c
		bk.wm += w * m
	}
	a.n += len(pers)
	a.maxFloor = floor
	a.sumC, a.sumM, a.sumCC, a.sumCM, a.sumMM = sumC, sumM, sumCC, sumCM, sumMM
	a.baseAbs, a.baseWAbs = baseAbs, baseWAbs
}

// updateMax folds one prediction into the per-α maxima and returns the
// new pruning floor.
func (a *AlphaSweep) updateMax(c, m float64) float64 {
	floor := math.Inf(1)
	for i, al := range a.sorted {
		if v := math.Abs(c + m*al); v > a.maxAbs[i] {
			a.maxAbs[i] = v
		}
		if a.maxAbs[i] < floor {
			floor = a.maxAbs[i]
		}
	}
	return floor
}

// AddOutsideROI records count samples excluded by the ROI filter,
// equivalent to count out-of-ROI Accumulator.Add calls on every α.
func (a *AlphaSweep) AddOutsideROI(count int) {
	if count < 0 {
		return
	}
	a.outsideROI += count
}

// Reports materialises one Report per α of the configured grid,
// index-aligned with the grid passed to NewAlphaSweep/Reconfigure. The
// returned slice is reused by subsequent Reports/Reconfigure calls;
// callers keeping it across those must copy.
func (a *AlphaSweep) Reports() []Report {
	out := a.reports
	if a.n == 0 {
		for i := range out {
			out[i] = Report{OutsideROI: a.outsideROI}
		}
		return out
	}
	fn := float64(a.n)
	// Group totals; the prefix at sorted index i covers buckets 0..i, so
	// the complement (buckets > i) is total − prefix.
	pos, neg := a.buckets[:len(a.sorted)+1], a.buckets[len(a.sorted)+1:2*len(a.sorted)+2]
	var tpC, tpM, tpWC, tpWM float64
	var tnC, tnM, tnWC, tnWM float64
	for b := range pos {
		tpC += pos[b].c
		tpM += pos[b].m
		tpWC += pos[b].wc
		tpWM += pos[b].wm
		tnC += neg[b].c
		tnM += neg[b].m
		tnWC += neg[b].wc
		tnWM += neg[b].wm
	}
	var pC, pM, pWC, pWM float64
	var qC, qM, qWC, qWM float64
	for i, al := range a.sorted {
		pC += pos[i].c
		pM += pos[i].m
		pWC += pos[i].wc
		pWM += pos[i].wm
		qC += neg[i].c
		qM += neg[i].m
		qWC += neg[i].wc
		qWM += neg[i].wm
		// m > 0 predictions are nonnegative at α ≥ α* (bucket ≤ i) and
		// negative above; m < 0 the other way around.
		sumAbs := a.baseAbs +
			(pC + al*pM) - ((tpC - pC) + al*(tpM-pM)) +
			((tnC - qC) + al*(tnM-qM)) - (qC + al*qM)
		sumWAbs := a.baseWAbs +
			(pWC + al*pWM) - ((tpWC - pWC) + al*(tpWM-pWM)) +
			((tnWC - qWC) + al*(tnWM-qWM)) - (qWC + al*qWM)
		sumSq := a.sumCC + al*(2*a.sumCM+al*a.sumMM)
		if sumSq < 0 {
			sumSq = 0 // cancellation guard: the exact value is a sum of squares
		}
		out[a.perm[i]] = Report{
			MAPE:       sumWAbs / fn,
			RMSE:       math.Sqrt(sumSq / fn),
			MAE:        sumAbs / fn,
			MBE:        (a.sumC + al*a.sumM) / fn,
			MaxAbsErr:  a.maxAbs[i],
			Samples:    a.n,
			OutsideROI: a.outsideROI,
		}
	}
	return out
}
