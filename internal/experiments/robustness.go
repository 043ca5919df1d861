package experiments

import (
	"solarpred/internal/faults"
	"solarpred/internal/optimize"
	"solarpred/internal/par"
	"solarpred/internal/timeseries"
)

// RobustnessRow reports how a fault scenario moves the predictor's MAPE
// on one site relative to the clean trace.
type RobustnessRow struct {
	Site     string
	Scenario faults.Config
	Damage   faults.Report
	// CleanMAPE and FaultyMAPE are evaluated with identical parameters
	// (the guideline point) so only the fault differs.
	CleanMAPE  float64
	FaultyMAPE float64
}

// DegradationPoints returns the MAPE increase in absolute points.
func (r RobustnessRow) DegradationPoints() float64 {
	return r.FaultyMAPE - r.CleanMAPE
}

// Robustness runs the fault-injection study at sampling rate n: each
// scenario from faults.Scenarios is injected into every configured
// site's trace, and the guideline-parameter predictor is scored on the
// corrupted measurements against the *clean* slot means (the energy
// actually delivered does not care about the sensor fault). This
// separates sensing damage from forecasting skill.
//
// The clean report is computed once per site; the (site, scenario)
// cells then run on the worker pool, with rows written by index in
// site-major order, so the rows do not depend on the worker count.
func Robustness(cfg Config, n int) ([]RobustnessRow, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	params := GuidelineParams(n)
	type cleanSite struct {
		trace *timeseries.Series
		view  *timeseries.SlotView
		mape  float64
	}
	cleans := make([]cleanSite, len(cfg.Sites))
	err := par.For(cfg.Workers, len(cfg.Sites), func(i int) error {
		trace, err := cfg.Trace(cfg.Sites[i])
		if err != nil {
			return err
		}
		// The clean evaluator rides the store (its views and evaluators are
		// the ones every other driver shares); the per-fault corrupted
		// views below are one-off and stay uncached.
		eval, view, err := cfg.evalFor(cfg.Sites[i], n)
		if err != nil {
			return err
		}
		rep, err := eval.EvaluateOnline(params, optimize.RefSlotMean)
		if err != nil {
			return err
		}
		cleans[i] = cleanSite{trace: trace, view: view, mape: rep.MAPE}
		return nil
	})
	if err != nil {
		return nil, err
	}
	scenarios := faults.Scenarios()
	rows := make([]RobustnessRow, len(cfg.Sites)*len(scenarios))
	err = par.For(cfg.Workers, len(rows), func(i int) error {
		clean := cleans[i/len(scenarios)]
		sc := scenarios[i%len(scenarios)]
		corrupted, damage, err := faults.Inject(clean.trace, sc)
		if err != nil {
			return err
		}
		faultyView, err := corrupted.Slot(n)
		if err != nil {
			return err
		}
		// Score the faulty predictor inputs against the clean references:
		// Start comes from the corrupted trace, Mean from the clean one.
		// The prefix column describes Start only, so the copied
		// StartPrefix still fits the hybrid.
		hybrid := *faultyView
		hybrid.Mean = clean.view.Mean
		eval, err := optimize.NewEval(&hybrid, optimize.WithWarmupDays(cfg.WarmupDays))
		if err != nil {
			return err
		}
		rep, err := eval.EvaluateOnline(params, optimize.RefSlotMean)
		if err != nil {
			return err
		}
		rows[i] = RobustnessRow{
			Site:       cfg.Sites[i/len(scenarios)],
			Scenario:   sc,
			Damage:     damage,
			CleanMAPE:  clean.mape,
			FaultyMAPE: rep.MAPE,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}
