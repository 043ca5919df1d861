package experiments

import (
	"fmt"

	"solarpred/internal/cloud"
	"solarpred/internal/core"
	"solarpred/internal/dataset"
	"solarpred/internal/optimize"
)

// SlotProfile is the diurnal error profile: MAPE per slot of day,
// aggregated over the scored days. It shows where the prediction error
// actually lives (mid-morning ramps and cloud-edge afternoons, per the
// paper's Section III argument for the region-of-interest filter).
type SlotProfile struct {
	Site   string
	N      int
	Params core.Params
	// MAPE[j] is the average error of predictions whose budgeted slot is
	// j; NaN-free (slots with no in-ROI samples report 0).
	MAPE []float64
	// Samples[j] counts the in-ROI predictions per slot.
	Samples []int
}

// ErrorBySlot computes the diurnal error profile for a site at sampling
// rate n using the given parameters.
func ErrorBySlot(cfg Config, site string, n int, params core.Params) (*SlotProfile, error) {
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
	prof := &SlotProfile{
		Site: site, N: n, Params: params,
		MAPE:    make([]float64, n),
		Samples: make([]int, n),
	}
	// Pairs are emitted for sources t = warmup*n … total−2; the budgeted
	// slot of pair i is (first+i) mod n.
	first := cfg.WarmupDays * n
	sums := make([]float64, n)
	for i, p := range pairs {
		if p.SlotMean < threshold || p.SlotMean <= 0 {
			continue
		}
		j := (first + i) % n
		sums[j] += abs(p.SlotMean-p.Predicted) / p.SlotMean
		prof.Samples[j]++
	}
	for j := 0; j < n; j++ {
		if prof.Samples[j] > 0 {
			prof.MAPE[j] = sums[j] / float64(prof.Samples[j])
		}
	}
	return prof, nil
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// DayTypeError is the error split by the generator's realised weather
// type — an analysis the paper could not do (NREL traces carry no
// labels) but which explains its per-site MAPE differences.
type DayTypeError struct {
	Site   string
	N      int
	Params core.Params
	// MAPE and Days are indexed by cloud.DayType (Clear..Mixed).
	MAPE [4]float64
	Days [4]int
}

// ErrorByDayType scores each day of a site's trace separately and
// aggregates MAPE by the day's realised weather type. The evaluator comes
// from the experiment store when one is set; the labels come from
// replaying the site's cloud process alone (dataset.Plans), which draws
// exactly the plans the trace was generated with.
func ErrorByDayType(cfg Config, site string, n int, params core.Params) (*DayTypeError, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	st, err := dataset.SiteByName(site)
	if err != nil {
		return nil, err
	}
	st.Days = cfg.Days
	plans, err := dataset.Plans(st)
	if err != nil {
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

	out := &DayTypeError{Site: site, N: n, Params: params}
	var sums [4]float64
	var counts [4]int
	daySeen := make(map[int]bool)
	first := cfg.WarmupDays * n
	for i, p := range pairs {
		if p.SlotMean < threshold || p.SlotMean <= 0 {
			continue
		}
		day := (first + i) / n
		if day >= len(plans) {
			return nil, fmt.Errorf("experiments: day %d beyond plan list", day)
		}
		tp := plans[day].Type
		if tp < cloud.Clear || tp > cloud.Mixed {
			return nil, fmt.Errorf("experiments: bad day type %v", tp)
		}
		sums[tp] += abs(p.SlotMean-p.Predicted) / p.SlotMean
		counts[tp]++
		if !daySeen[day] {
			daySeen[day] = true
			out.Days[tp]++
		}
	}
	for i := range sums {
		if counts[i] > 0 {
			out.MAPE[i] = sums[i] / float64(counts[i])
		}
	}
	return out, nil
}
