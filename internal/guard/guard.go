// Package guard is the online input-quality gate in front of
// core.Predictor: a deployed node's measurement stream is not the clean
// logger data the paper evaluates on, and a predictor fed a stuck or
// spiking sensor silently emits garbage. The guard watches the raw
// stream with one streaming detector per fault model of internal/faults,
// repairs what can be repaired before it reaches the predictor, scores
// the stream's recent quality, and degrades the forecast gracefully when
// the stream cannot be trusted.
//
// # Detectors (dual to internal/faults injectors)
//
//   - dropout (hold runs): two or more consecutive bit-equal positive
//     samples. A real irradiance stream essentially never repeats a
//     float exactly; an ADC path holding its previous value does nothing
//     else. No repair is possible (the information is gone) — the run is
//     flagged and scored.
//   - stuck-at-zero: a run of zero samples in slots whose climatological
//     mean μD says the sun is clearly up. Repaired by holding the last
//     good sample (the hold-last-good repair a field deployment applies),
//     starting with the sample that completes the run.
//   - spike: a sample exceeding SpikeRatio × μD(slot) in a clearly-bright
//     slot. Physically the brightness ratio is O(1) (the same argument
//     behind core.EtaMax); the sample is clamped to the threshold.
//   - gain drift: the clear-sky envelope — the maximum daily peak over a
//     trailing window — falling well below its own recent baseline.
//     Slow multiplicative drift is locally indistinguishable from
//     seasonal decline, so the detector is deliberately conservative
//     (sensitivity floor around 30% depth at the default windows) and
//     contributes only a mild, bounded quality penalty: it informs
//     operators rather than forcing the fallback.
//
// Thresholds are calibrated so that the generator's clean traces never
// trigger any detector at quick-universe scale: a clean stream passes
// through bit-untouched and the guarded forecast is bit-identical to the
// raw predictor's (pinned by tests).
//
// # Degradation ladder
//
// While quality is acceptable the predictor runs on repaired samples.
// When the recent-quality score falls below MinQuality, Forecast stops
// trusting the conditioned state entirely and serves the μD
// climatological mean for each horizon slot, flagged Degraded — the same
// ladder internal/serve exposes over HTTP (repair → climatological
// fallback → 503).
//
// # Ownership
//
// A Guard owns its predictor and follows the same single-writer contract
// as core.Predictor: Observe from exactly one goroutine; between
// Observes any number of concurrent readers may call Forecast, Quality
// and Stats. A serving layer replays the stream, then publishes the
// guard read-only (the pattern internal/serve follows). Derive builds a
// read-only view of a replayed guard under another (α, K): no detector
// reads α or K, so one replay per (N, D) serves them all.
package guard

import (
	"fmt"

	"solarpred/internal/core"
	"solarpred/internal/faults"
)

// Config tunes the detectors and the degradation policy. The zero value
// is not usable; start from DefaultConfig.
type Config struct {
	// HoldRun is the length at which a run of consecutive bit-equal
	// positive samples is flagged as dropout (≥ 2).
	HoldRun int
	// ZeroRun is the length at which a run of zero samples in bright
	// slots is flagged as stuck-at-zero (≥ 2).
	ZeroRun int
	// ZeroMuFrac gates the stuck detector: a slot counts as bright when
	// μD(slot) > ZeroMuFrac × max μD.
	ZeroMuFrac float64
	// SpikeRatio flags (and clamps to) sample/μD(slot) ratios above it.
	SpikeRatio float64
	// SpikeMuFrac gates the spike detector the way ZeroMuFrac gates the
	// stuck detector: dawn/dusk ratios are numerically meaningless.
	SpikeMuFrac float64
	// DriftEnvDays and DriftBaseDays are the trailing windows of the
	// clear-sky envelope statistic: max daily peak over the last
	// DriftEnvDays versus the last DriftBaseDays.
	DriftEnvDays  int
	DriftBaseDays int
	// DriftRatio fires the drift detector when envelope/baseline falls
	// below it.
	DriftRatio float64
	// DriftPenalty is the per-slot quality deduction while drift is
	// active. Keep it below 1−MinQuality so drift alone cannot force the
	// fallback on an otherwise-clean stream (it is unrepairable and
	// seasonally confounded at full-year scale).
	DriftPenalty float64
	// QualityAlpha is the per-sample EWMA weight of the quality score;
	// 0 means 1/N (a memory of roughly one day).
	QualityAlpha float64
	// MinQuality is the degradation threshold: below it Forecast serves
	// the μD climatological fallback flagged Degraded.
	MinQuality float64
}

// DefaultConfig returns the calibrated defaults. They are tuned against
// the dataset generator's clean traces (all six sites probed at both
// quick and full-year scale): no detector fires on clean data, dropout
// and stuck runs of two slots fire, spikes beyond 6× the rolling slot
// climatology fire (the clean maximum observed anywhere is 5.56 — a
// storm-dark window dragging μD down before a clear morning), and gain
// drift fires from roughly 30% depth.
func DefaultConfig() Config {
	return Config{
		HoldRun:       2,
		ZeroRun:       2,
		ZeroMuFrac:    0.25,
		SpikeRatio:    6,
		SpikeMuFrac:   0.3,
		DriftEnvDays:  10,
		DriftBaseDays: 25,
		DriftRatio:    0.85,
		DriftPenalty:  0.1,
		MinQuality:    0.7,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.HoldRun < 2 {
		return fmt.Errorf("guard: hold run %d < 2", c.HoldRun)
	}
	if c.ZeroRun < 2 {
		return fmt.Errorf("guard: zero run %d < 2", c.ZeroRun)
	}
	if c.ZeroMuFrac <= 0 || c.ZeroMuFrac >= 1 {
		return fmt.Errorf("guard: zero μ fraction %.2f out of (0,1)", c.ZeroMuFrac)
	}
	if c.SpikeRatio <= 1 {
		return fmt.Errorf("guard: spike ratio %.2f must exceed 1", c.SpikeRatio)
	}
	if c.SpikeMuFrac <= 0 || c.SpikeMuFrac >= 1 {
		return fmt.Errorf("guard: spike μ fraction %.2f out of (0,1)", c.SpikeMuFrac)
	}
	if c.DriftEnvDays < 1 || c.DriftBaseDays <= c.DriftEnvDays {
		return fmt.Errorf("guard: drift windows %d/%d invalid", c.DriftEnvDays, c.DriftBaseDays)
	}
	if c.DriftRatio <= 0 || c.DriftRatio >= 1 {
		return fmt.Errorf("guard: drift ratio %.2f out of (0,1)", c.DriftRatio)
	}
	if c.DriftPenalty < 0 || c.DriftPenalty > 1 {
		return fmt.Errorf("guard: drift penalty %.2f out of [0,1]", c.DriftPenalty)
	}
	if c.QualityAlpha < 0 || c.QualityAlpha >= 1 {
		return fmt.Errorf("guard: quality alpha %.3f out of [0,1)", c.QualityAlpha)
	}
	if c.MinQuality <= 0 || c.MinQuality >= 1 {
		return fmt.Errorf("guard: min quality %.2f out of (0,1)", c.MinQuality)
	}
	return nil
}

// Stats is a snapshot of what the guard has seen and done.
type Stats struct {
	// Samples is the number of observations gated.
	Samples uint64 `json:"samples"`
	// Detected counts flagged samples per fault kind (indexed in
	// faults.Kind order: dropout, stuck-at-zero, spike, gain-drift; the
	// drift entry counts alarm activations, not samples).
	Detected [4]uint64 `json:"detected"`
	// Repaired counts samples whose fed value differs from the raw one.
	Repaired uint64 `json:"repaired"`
	// Quality is the current recent-quality score in [0,1].
	Quality float64 `json:"quality"`
	// Degraded reports whether a Forecast now would take the fallback.
	Degraded bool `json:"degraded"`
	// DriftActive reports the clear-sky envelope alarm, with the
	// envelope/baseline ratio behind it (0 until the window fills).
	DriftActive bool    `json:"drift_active"`
	DriftRatio  float64 `json:"drift_ratio"`
}

// DetectedKind returns the flagged count for a fault kind.
func (s Stats) DetectedKind(k faults.Kind) uint64 {
	if int(k) < 0 || int(k) >= len(s.Detected) {
		return 0
	}
	return s.Detected[k]
}

// Clean reports whether no detector has fired at all.
func (s Stats) Clean() bool {
	for _, d := range s.Detected {
		if d != 0 {
			return false
		}
	}
	return true
}

// Forecast is a guarded forecast: the watts, whether they came from the
// degraded climatological fallback, and the quality score behind the
// decision.
type Forecast struct {
	Watts    []float64 `json:"watts"`
	Degraded bool      `json:"degraded"`
	Quality  float64   `json:"quality"`
}

// Guard wraps one core.Predictor with the input-quality gate. Construct
// with New; feed with Observe under the single-writer contract.
type Guard struct {
	cfg Config
	p   *core.Predictor
	n   int

	// Raw-stream detector state, owned by Observe.
	lastRaw  float64 // previous raw sample
	haveRaw  bool
	holdRun  int     // current run of bit-equal positive raw samples
	zeroRun  int     // current run of bright-slot zeros
	lastGood float64 // last raw sample no detector flagged
	slot     int     // slot after the last observed one
	samples  uint64

	// Climatology context, refreshed at each day roll.
	peakMu float64

	// Clear-sky envelope state for the drift detector.
	dayPeak  float64
	peakRing []float64 // last DriftBaseDays daily peaks
	ringN    int       // valid entries
	ringPos  int
	driftOn  bool
	driftVal float64

	detected [4]uint64
	repaired uint64
	quality  float64

	// derived marks a view made by Derive, which shares peakRing and
	// the predictor's history with the guard it was derived from.
	derived bool
}

// New creates a guarded predictor for n slots per day.
func New(n int, params core.Params, cfg Config) (*Guard, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	p, err := core.New(n, params)
	if err != nil {
		return nil, err
	}
	if cfg.QualityAlpha == 0 {
		cfg.QualityAlpha = 1 / float64(n)
	}
	return &Guard{
		cfg:      cfg,
		p:        p,
		n:        n,
		peakRing: make([]float64, cfg.DriftBaseDays),
		quality:  1,
	}, nil
}

// N returns the configured slots per day.
func (g *Guard) N() int { return g.n }

// Config returns the guard's (resolved) configuration.
func (g *Guard) Config() Config { return g.cfg }

// Predictor exposes the wrapped predictor for read-only use (metadata,
// cross-checks in tests). Callers must respect the ownership contract.
func (g *Guard) Predictor() *core.Predictor { return g.p }

// Derive returns a read-only guard for params over g's replayed stream:
// the guard that New(g.N(), params, g.Config()) would be after the same
// observations, bit for bit. The detector and quality state is copied
// and the predictor is core.Predictor.Derive of g's, so params.D must
// equal g's D. g must not be observed while derived guards are in use;
// Observe on the derived guard returns core.ErrDerived.
func (g *Guard) Derive(params core.Params) (*Guard, error) {
	p, err := g.p.Derive(params)
	if err != nil {
		return nil, err
	}
	v := *g
	v.p = p
	v.derived = true
	return &v, nil
}

// Quality returns the current recent-quality score in [0,1]: an EWMA of
// the unflagged-sample fraction, with the bounded drift penalty mixed in
// while the envelope alarm is active.
func (g *Guard) Quality() float64 { return g.quality }

// Degraded reports whether a Forecast now would serve the fallback.
func (g *Guard) Degraded() bool { return g.quality < g.cfg.MinQuality }

// Stats snapshots the guard.
func (g *Guard) Stats() Stats {
	s := Stats{
		Samples:     g.samples,
		Detected:    g.detected,
		Repaired:    g.repaired,
		Quality:     g.quality,
		Degraded:    g.quality < g.cfg.MinQuality,
		DriftActive: g.driftOn,
		DriftRatio:  g.driftVal,
	}
	return s
}

// Observe gates one raw measurement and feeds the (possibly repaired)
// value to the predictor. Slots follow core.Predictor's in-order
// contract. The returned error is the predictor's — a flagged sample is
// not an error; absorbing it is the guard's job.
func (g *Guard) Observe(slot int, power float64) error {
	if g.derived {
		return core.ErrDerived
	}
	if slot == 0 && g.samples > 0 {
		g.rollDay()
	}
	fed, flagged := g.gate(slot, power)
	if err := g.p.Observe(slot, fed); err != nil {
		return err
	}
	if fed != power {
		g.repaired++
	}
	g.samples++
	g.slot = slot + 1
	// The clear-sky envelope only trusts unflagged samples: a spike —
	// even clamped, since SpikeRatio·μ can exceed a genuine peak — must
	// not inflate the day's peak, or one impulse props the env/base
	// ratio up for DriftBaseDays and masks a concurrent gain-drift
	// alarm.
	if !flagged && power > g.dayPeak {
		g.dayPeak = power
	}
	if !flagged && power > 0 {
		g.lastGood = power
	}
	g.updateQuality(flagged)
	g.lastRaw, g.haveRaw = power, true
	return nil
}

// gate runs the per-sample detectors on the raw value and returns the
// value to feed plus whether any detector flagged the sample.
func (g *Guard) gate(slot int, raw float64) (fed float64, flagged bool) {
	fed = raw

	// Dropout: runs of bit-equal positive samples. The first sample of a
	// run is legitimate; every repeat past the threshold is a hold. The
	// information is gone, so there is no repair — only a quality hit.
	if g.haveRaw && raw > 0 && raw == g.lastRaw {
		g.holdRun++
	} else {
		g.holdRun = 1
	}
	if g.holdRun >= g.cfg.HoldRun {
		g.detected[faults.Dropout]++
		flagged = true
	}

	// The μD-conditioned gates stay closed until the predictor has a full
	// history: early tables are partial and their peaks unrepresentative.
	mu := 0.0
	if g.p.Ready() && g.peakMu > 0 {
		mu, _ = g.p.MuD(slot)
	}

	// Stuck-at-zero: zero in a clearly-bright slot. Repaired by holding
	// the last good sample once the run is long enough to rule out the
	// single storm-dark samples clean traces do produce.
	if raw == 0 && mu > g.cfg.ZeroMuFrac*g.peakMu {
		g.zeroRun++
		if g.zeroRun >= g.cfg.ZeroRun {
			g.detected[faults.StuckAtZero]++
			flagged = true
			if g.lastGood > 0 {
				fed = g.lastGood
			}
		}
	} else {
		g.zeroRun = 0
	}

	// Spike: impulse far above the slot climatology in a bright slot.
	// Clamped to the threshold — the same physical argument as EtaMax:
	// "today versus the average day" is an O(1) quantity.
	if mu > g.cfg.SpikeMuFrac*g.peakMu && raw > g.cfg.SpikeRatio*mu {
		g.detected[faults.Spike]++
		flagged = true
		fed = g.cfg.SpikeRatio * mu
	}
	return fed, flagged
}

// rollDay closes the completed day's envelope accounting and refreshes
// the climatology context. Called before the predictor itself rolls, so
// peakMu describes the history available while the previous day was
// being observed — one day of staleness the thresholds absorb.
func (g *Guard) rollDay() {
	g.peakRing[g.ringPos] = g.dayPeak
	g.ringPos = (g.ringPos + 1) % len(g.peakRing)
	if g.ringN < len(g.peakRing) {
		g.ringN++
	}
	g.dayPeak = 0

	// Clear-sky envelope: max daily peak over the env window versus the
	// base window, evaluated once the base window has filled.
	if g.ringN >= g.cfg.DriftBaseDays {
		env, base := 0.0, 0.0
		for i := 0; i < g.ringN; i++ {
			idx := (g.ringPos - 1 - i + 2*len(g.peakRing)) % len(g.peakRing)
			if i < g.cfg.DriftEnvDays && g.peakRing[idx] > env {
				env = g.peakRing[idx]
			}
			if g.peakRing[idx] > base {
				base = g.peakRing[idx]
			}
		}
		if base > 0 {
			g.driftVal = env / base
			wasOn := g.driftOn
			g.driftOn = g.driftVal < g.cfg.DriftRatio
			if g.driftOn && !wasOn {
				g.detected[faults.GainDrift]++
			}
		}
	}

	// Refresh the μD peak for the bright-slot gates. The predictor rolls
	// its own table when it sees slot 0, immediately after this.
	peak := 0.0
	for j := 0; j < g.n; j++ {
		if mu, err := g.p.MuD(j); err == nil && mu > peak {
			peak = mu
		}
	}
	g.peakMu = peak
}

// updateQuality folds one sample into the quality EWMA. While the drift
// alarm is active a bounded penalty is mixed in — drift is unrepairable
// and seasonally confounded, so it informs rather than forces the
// fallback as long as DriftPenalty < 1−MinQuality.
func (g *Guard) updateQuality(flagged bool) {
	x := 1.0
	if flagged {
		x = 0
	} else if g.driftOn {
		x = 1 - g.cfg.DriftPenalty
	}
	g.quality += g.cfg.QualityAlpha * (x - g.quality)
}

// Forecast returns the guarded forecast for the next h slots. While
// quality is acceptable it is exactly the wrapped predictor's forecast
// (bit-identical on clean streams); below MinQuality it is the μD
// climatological mean per horizon slot, flagged Degraded. Forecast never
// mutates the guard, so concurrent readers are safe between Observes.
func (g *Guard) Forecast(h int) (*Forecast, error) {
	if g.quality >= g.cfg.MinQuality {
		watts, err := g.p.Forecast(h)
		if err != nil {
			return nil, err
		}
		return &Forecast{Watts: watts, Quality: g.quality}, nil
	}
	if h < 1 {
		return nil, fmt.Errorf("guard: forecast horizon %d < 1", h)
	}
	if g.samples == 0 {
		return nil, fmt.Errorf("guard: no observation yet")
	}
	watts := make([]float64, h)
	last := g.slot - 1 // last observed slot
	for i := 1; i <= h; i++ {
		mu, err := g.p.MuD((last + i) % g.n)
		if err != nil {
			return nil, err
		}
		watts[i-1] = mu
	}
	return &Forecast{Watts: watts, Degraded: true, Quality: g.quality}, nil
}
