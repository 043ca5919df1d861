package experiments

import (
	"solarpred/internal/core"
	"solarpred/internal/optimize"
)

// MonthError is the prediction error of one calendar month of the trace
// (months are 30/31-day blocks counted from day 1; month 12 absorbs the
// remainder).
type MonthError struct {
	Month   int // 1-based
	MAPE    float64
	Samples int
}

// daysPerMonth is the non-leap calendar used by the generator.
var daysPerMonth = []int{31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31}

// monthOfDay returns the 1-based month containing the zero-based day.
func monthOfDay(day int) int {
	d := day
	for m, n := range daysPerMonth {
		if d < n {
			return m + 1
		}
		d -= n
	}
	return 12
}

// Seasonal computes the month-by-month MAPE of a site at sampling rate n
// with the given parameters. Months fully inside the warm-up report zero
// samples. It quantifies the winter-variability effect the cloud model's
// SeasonalAmplitude injects (and that real mid-latitude traces show).
func Seasonal(cfg Config, site string, n int, params core.Params) ([]MonthError, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	e, _, err := cfg.evalFor(site, n)
	if err != nil {
		return nil, err
	}
	pairs, err := e.Pairs(params)
	if err != nil {
		return nil, err
	}
	threshold := e.Threshold(optimize.RefSlotMean)
	sums := make([]float64, 13)
	counts := make([]int, 13)
	first := cfg.WarmupDays * n
	for i, p := range pairs {
		if p.SlotMean < threshold || p.SlotMean <= 0 {
			continue
		}
		day := (first + i) / n
		m := monthOfDay(day)
		sums[m] += abs(p.SlotMean-p.Predicted) / p.SlotMean
		counts[m]++
	}
	out := make([]MonthError, 0, 12)
	for m := 1; m <= 12; m++ {
		me := MonthError{Month: m, Samples: counts[m]}
		if counts[m] > 0 {
			me.MAPE = sums[m] / float64(counts[m])
		}
		out = append(out, me)
	}
	return out, nil
}
