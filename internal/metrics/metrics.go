// Package metrics implements the paper's prediction-error measurement
// methodology (Section III): the two per-slot error definitions (Eq. 6
// against the slot-boundary sample, Eq. 7 against the mean slot power),
// the averaged error functions (MAPE — the paper's choice, Eq. 8 — plus
// RMSE, MAE and MBE for the comparison the paper motivates), and the
// region-of-interest filter that excludes night-time and dawn/dusk
// samples below 10 % of the data-set peak.
package metrics

import (
	"fmt"
	"math"
)

// DefaultROIFraction is the paper's region-of-interest threshold: samples
// are included in the average error only when the reference (mean slot
// power) is at least this fraction of the peak.
const DefaultROIFraction = 0.10

// DefaultWarmupDays is the number of initial days excluded from error
// averaging (the paper evaluates days 21–365 so the D=20 history matrix
// is full for every configuration).
const DefaultWarmupDays = 20

// Pair is one prediction outcome: the forecast and the two references it
// can be scored against. The paper's slot n spans the interval between
// sample instants n and n+1; the prediction ê(n+1) made at the slot's
// start estimates the slot's energy as ê(n+1)·T.
type Pair struct {
	// Predicted is ê(n+1), the algorithm output.
	Predicted float64
	// SlotStart is e(n+1), the sampled power at the end boundary of the
	// slot (reference of the paper's Eq. 6 / MAPE′).
	SlotStart float64
	// SlotMean is ē(n), the mean power over the slot being estimated
	// (reference of the paper's Eq. 7 / MAPE).
	SlotMean float64
}

// Error returns error = ē − ê(n+1) (Eq. 7).
func (p Pair) Error() float64 { return p.SlotMean - p.Predicted }

// Accumulator aggregates per-slot errors into the average error
// functions. Construct with NewAccumulator; Add skips samples outside the
// region of interest.
type Accumulator struct {
	threshold float64 // absolute ROI threshold on the reference value

	n          int
	sumAbsPct  float64 // Σ |err|/ref        (MAPE)
	sumSq      float64 // Σ err²             (RMSE)
	sumAbs     float64 // Σ |err|            (MAE)
	sumSigned  float64 // Σ err              (MBE)
	maxAbsErr  float64
	outsideROI int
}

// NewAccumulator creates an accumulator with an absolute region-of-
// interest threshold: samples whose reference value is below threshold
// are counted but excluded from the averages. Use PeakThreshold to derive
// the paper's 10 %-of-peak value.
func NewAccumulator(threshold float64) (*Accumulator, error) {
	a, err := MakeAccumulator(threshold)
	if err != nil {
		return nil, err
	}
	return &a, nil
}

// MakeAccumulator is the value-type variant of NewAccumulator, for
// callers that keep accumulators in preallocated scratch slices (the
// grid-search workers) instead of allocating one per evaluation.
func MakeAccumulator(threshold float64) (Accumulator, error) {
	if threshold < 0 || math.IsNaN(threshold) {
		return Accumulator{}, fmt.Errorf("metrics: threshold %v must be nonnegative", threshold)
	}
	return Accumulator{threshold: threshold}, nil
}

// PeakThreshold returns fraction×peak, the absolute ROI cut-off.
func PeakThreshold(peak, fraction float64) float64 {
	if peak < 0 {
		peak = 0
	}
	return peak * fraction
}

// Add scores one prediction against a reference value (pass the slot mean
// for MAPE, the slot-start sample for MAPE′). Samples with reference
// below the ROI threshold are recorded but excluded from averages.
func (a *Accumulator) Add(predicted, reference float64) {
	if reference < a.threshold || reference <= 0 {
		a.outsideROI++
		return
	}
	err := reference - predicted
	abs := math.Abs(err)
	a.n++
	a.sumAbsPct += abs / reference
	a.sumSq += err * err
	a.sumAbs += abs
	a.sumSigned += err
	if abs > a.maxAbsErr {
		a.maxAbsErr = abs
	}
}

// AddInROI scores one prediction the caller has already established to be
// inside the region of interest (reference ≥ threshold and positive),
// with the reciprocal of the reference hoisted out so a sweep over many
// predictions sharing one reference pays for the division once. Apart
// from computing |err|/ref as |err|·(1/ref) — an ulp-level difference —
// it accumulates exactly like Add.
func (a *Accumulator) AddInROI(predicted, reference, invReference float64) {
	err := reference - predicted
	abs := math.Abs(err)
	a.n++
	a.sumAbsPct += abs * invReference
	a.sumSq += err * err
	a.sumAbs += abs
	a.sumSigned += err
	if abs > a.maxAbsErr {
		a.maxAbsErr = abs
	}
}

// AddOutsideROI records count samples excluded by the ROI filter in one
// step, equivalent to count Add calls with a sub-threshold reference.
func (a *Accumulator) AddOutsideROI(count int) {
	if count < 0 {
		return
	}
	a.outsideROI += count
}

// N returns the number of in-ROI samples contributing to the averages.
func (a *Accumulator) N() int { return a.n }

// OutsideROI returns the number of samples excluded by the ROI filter.
func (a *Accumulator) OutsideROI() int { return a.outsideROI }

// MAPE returns the mean absolute percentage error (Eq. 8) as a fraction
// (0.158 for 15.8 %). Zero when no in-ROI samples were added.
func (a *Accumulator) MAPE() float64 {
	if a.n == 0 {
		return 0
	}
	return a.sumAbsPct / float64(a.n)
}

// RMSE returns the root-mean-squared error over in-ROI samples.
func (a *Accumulator) RMSE() float64 {
	if a.n == 0 {
		return 0
	}
	return math.Sqrt(a.sumSq / float64(a.n))
}

// MAE returns the mean absolute error over in-ROI samples.
func (a *Accumulator) MAE() float64 {
	if a.n == 0 {
		return 0
	}
	return a.sumAbs / float64(a.n)
}

// MBE returns the mean (signed) bias error over in-ROI samples; positive
// means under-prediction.
func (a *Accumulator) MBE() float64 {
	if a.n == 0 {
		return 0
	}
	return a.sumSigned / float64(a.n)
}

// MaxAbsError returns the largest absolute in-ROI error (the outlier
// sensitivity the paper holds against RMSE).
func (a *Accumulator) MaxAbsError() float64 { return a.maxAbsErr }

// Reset clears the accumulator, keeping its threshold.
func (a *Accumulator) Reset() {
	t := a.threshold
	*a = Accumulator{threshold: t}
}

// Report is a complete summary of one evaluation run.
type Report struct {
	MAPE       float64
	RMSE       float64
	MAE        float64
	MBE        float64
	MaxAbsErr  float64
	Samples    int
	OutsideROI int
}

// Snapshot captures the accumulator state as a Report.
func (a *Accumulator) Snapshot() Report {
	return Report{
		MAPE:       a.MAPE(),
		RMSE:       a.RMSE(),
		MAE:        a.MAE(),
		MBE:        a.MBE(),
		MaxAbsErr:  a.MaxAbsError(),
		Samples:    a.n,
		OutsideROI: a.outsideROI,
	}
}

// Summarize scores a batch of pairs with both references and the given
// absolute ROI threshold, returning the MAPE report (Eq. 7 reference) and
// the MAPE′ report (Eq. 6 reference). It is the one-shot convenience over
// two Accumulators.
func Summarize(pairs []Pair, threshold float64) (mape, mapePrime Report, err error) {
	accMean, err := NewAccumulator(threshold)
	if err != nil {
		return Report{}, Report{}, err
	}
	accStart, err := NewAccumulator(threshold)
	if err != nil {
		return Report{}, Report{}, err
	}
	for _, p := range pairs {
		accMean.Add(p.Predicted, p.SlotMean)
		accStart.Add(p.Predicted, p.SlotStart)
	}
	return accMean.Snapshot(), accStart.Snapshot(), nil
}
