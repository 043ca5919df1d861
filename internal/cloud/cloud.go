// Package cloud implements the stochastic atmosphere of the synthetic
// irradiance generator. A per-site Climate parameterises a three-level
// process:
//
//  1. a day-type Markov chain (clear / partly cloudy / overcast / mixed)
//     capturing the day-to-day correlation that the prediction algorithm's
//     μD term exploits;
//  2. an intra-day AR(1) clear-sky-index fluctuation capturing slow haze
//     and thin-cloud drift;
//  3. a cloud-passage telegraph process (Poisson-arriving attenuation
//     events with exponential durations) capturing the sharp ramps that
//     dominate prediction error on variable days, plus an optional
//     morning-fog model for marine-layer sites (HSU in the paper's
//     data sets).
//
// The output of the process is a multiplicative transmittance trace in
// [0, MaxTransmittance] that the dataset generator applies to the
// clear-sky irradiance envelope. Everything is driven by a caller-provided
// seed, so generated data sets are reproducible bit-for-bit.
package cloud

import (
	"fmt"
	"math"
	"math/rand"
)

// DayType classifies the overall character of one day.
type DayType int

// Day types, ordered from most to least solar yield.
const (
	Clear DayType = iota
	Partly
	Overcast
	Mixed
	numDayTypes
)

// String returns a human-readable day-type name.
func (d DayType) String() string {
	switch d {
	case Clear:
		return "clear"
	case Partly:
		return "partly"
	case Overcast:
		return "overcast"
	case Mixed:
		return "mixed"
	default:
		return fmt.Sprintf("DayType(%d)", int(d))
	}
}

// MaxTransmittance bounds the transmittance: cloud-edge reflection can
// briefly push irradiance a few percent above the clear-sky value.
const MaxTransmittance = 1.1

// FastRho1Min is the per-minute correlation of the fast scintillation
// component. At 0.55 the component decorrelates within a few minutes,
// matching the flicker of broken-cloud irradiance records.
const FastRho1Min = 0.55

// TypeParams describes the intra-day process for one day type.
type TypeParams struct {
	// BaseMean and BaseStd describe the day's base transmittance level,
	// drawn once per day.
	BaseMean, BaseStd float64
	// ARRho1Min is the per-minute AR(1) correlation of the slow
	// fluctuation component; ARSigma its stationary standard deviation.
	ARRho1Min, ARSigma float64
	// FastSigma is the stationary standard deviation of the fast
	// scintillation component (per-minute correlation FastRho1Min).
	// Broken-cloud fields make instantaneous irradiance flicker on the
	// minute scale; this is what separates the slot-start sample from the
	// slot mean and hence MAPE′ from MAPE in the paper's Section III.
	FastSigma float64
	// EventsPerDay is the expected number of cloud-passage events.
	EventsPerDay float64
	// EventMeanMinutes is the mean duration of a passage.
	EventMeanMinutes float64
	// EventAttenMin and EventAttenMax bound the uniform multiplicative
	// attenuation applied during a passage (smaller = darker cloud).
	EventAttenMin, EventAttenMax float64
}

// FogParams describes an optional marine-layer morning fog.
type FogParams struct {
	// Probability of fog on any given day.
	Probability float64
	// Attenuation while fully fogged (multiplicative, e.g. 0.25).
	Attenuation float64
	// BurnOffMeanMinutes is the mean clock time after sunrise at which
	// the fog starts burning off.
	BurnOffMeanMinutes float64
	// BurnOffStdMinutes is the day-to-day spread of the burn-off time.
	BurnOffStdMinutes float64
	// RampMinutes is the duration of the fog-to-sun transition.
	RampMinutes float64
}

// Climate is the full per-site stochastic description.
type Climate struct {
	// Name identifies the climate preset in diagnostics.
	Name string
	// Transition[i][j] is the probability of moving from day type i to j.
	// Rows must sum to 1.
	Transition [4][4]float64
	// Types holds the intra-day parameters per day type.
	Types [4]TypeParams
	// Fog is the morning-fog model; zero Probability disables it.
	Fog FogParams
	// SeasonalAmplitude scales a winter-variability boost: transition
	// probabilities toward cloudier types are increased by this fraction
	// in winter (day-of-year distance from the summer solstice).
	SeasonalAmplitude float64
}

// Validate checks stochastic parameters for consistency.
func (c Climate) Validate() error {
	for i, row := range c.Transition {
		var sum float64
		for _, p := range row {
			if p < 0 || p > 1 {
				return fmt.Errorf("cloud: climate %q transition[%d] has probability out of [0,1]", c.Name, i)
			}
			sum += p
		}
		if math.Abs(sum-1) > 1e-9 {
			return fmt.Errorf("cloud: climate %q transition row %d sums to %.4f, want 1", c.Name, i, sum)
		}
	}
	for i, tp := range c.Types {
		if tp.BaseMean < 0 || tp.BaseMean > MaxTransmittance {
			return fmt.Errorf("cloud: climate %q type %d BaseMean %.2f out of range", c.Name, i, tp.BaseMean)
		}
		if tp.ARRho1Min < 0 || tp.ARRho1Min >= 1 {
			return fmt.Errorf("cloud: climate %q type %d ARRho1Min %.3f out of [0,1)", c.Name, i, tp.ARRho1Min)
		}
		if tp.EventAttenMin > tp.EventAttenMax {
			return fmt.Errorf("cloud: climate %q type %d attenuation bounds inverted", c.Name, i)
		}
		if tp.EventAttenMin < 0 || tp.EventAttenMax > 1 {
			return fmt.Errorf("cloud: climate %q type %d attenuation out of [0,1]", c.Name, i)
		}
		if tp.FastSigma < 0 {
			return fmt.Errorf("cloud: climate %q type %d negative FastSigma", c.Name, i)
		}
		if tp.EventsPerDay < 0 || tp.EventMeanMinutes < 0 {
			return fmt.Errorf("cloud: climate %q type %d negative event parameters", c.Name, i)
		}
	}
	if c.Fog.Probability < 0 || c.Fog.Probability > 1 {
		return fmt.Errorf("cloud: climate %q fog probability out of range", c.Name)
	}
	if c.SeasonalAmplitude < 0 || c.SeasonalAmplitude > 1 {
		return fmt.Errorf("cloud: climate %q seasonal amplitude out of [0,1]", c.Name)
	}
	return nil
}

// Process generates successive days of transmittance for one site.
// It is not safe for concurrent use; create one per goroutine.
type Process struct {
	climate Climate
	rng     *rand.Rand
	state   DayType
	// arState carries the slow AR(1) fluctuation across day boundaries so
	// evening haze persists into the next morning; fastState is the
	// scintillation component.
	arState   float64
	fastState float64
}

// NewProcess creates a seeded transmittance process. The initial day type
// is drawn from the stationary-ish heuristic of one warm-up transition
// from Clear.
func NewProcess(climate Climate, seed int64) (*Process, error) {
	if err := climate.Validate(); err != nil {
		return nil, err
	}
	p := &Process{
		climate: climate,
		rng:     rand.New(rand.NewSource(seed)),
		state:   Clear,
	}
	// Warm up the chain so the first generated day is not biased clear.
	for i := 0; i < 8; i++ {
		p.state = p.nextType(1)
	}
	return p, nil
}

// seasonFactor returns 0 at the summer solstice and 1 at the winter
// solstice for the northern hemisphere (all paper sites are northern US).
func seasonFactor(doy int) float64 {
	// Circular distance from day 172 (June solstice), normalised to [0,1].
	d := math.Abs(float64(doy) - 172)
	if d > 365.0/2 {
		d = 365 - d
	}
	return d / (365.0 / 2)
}

// nextType advances the Markov chain, applying the seasonal cloudiness
// boost for the given day of year.
func (p *Process) nextType(doy int) DayType {
	row := p.climate.Transition[p.state]
	// Seasonal adjustment: shift probability mass from Clear toward the
	// cloudier types in winter.
	adj := row
	if s := p.climate.SeasonalAmplitude * seasonFactor(doy); s > 0 {
		shift := adj[Clear] * s
		adj[Clear] -= shift
		adj[Partly] += shift * 0.4
		adj[Overcast] += shift * 0.35
		adj[Mixed] += shift * 0.25
	}
	u := p.rng.Float64()
	var cum float64
	for t := DayType(0); t < numDayTypes; t++ {
		cum += adj[t]
		if u < cum {
			return t
		}
	}
	return Mixed
}

// DayPlan captures the realised stochastic choices for one generated day;
// it is returned for observability (tests, diagnostics, figure labelling).
type DayPlan struct {
	Type       DayType
	Base       float64
	Foggy      bool
	BurnOffMin float64
	Events     int
}

// GenerateDay fills out with one day of multiplicative transmittance at
// the given resolution and advances the process state. len(out) must be
// 1440/resolutionMinutes. sunriseMin/sunsetMin bound the fog model; pass
// 0/1440 if unknown.
func (p *Process) GenerateDay(doy, resolutionMinutes int, sunriseMin, sunsetMin float64, out []float64) (DayPlan, error) {
	perDay := 1440 / resolutionMinutes
	if len(out) != perDay {
		return DayPlan{}, fmt.Errorf("cloud: out length %d, want %d", len(out), perDay)
	}
	p.state = p.nextType(doy)
	tp := p.climate.Types[p.state]

	plan := DayPlan{Type: p.state}
	plan.Base = clamp(tp.BaseMean+p.rng.NormFloat64()*tp.BaseStd, 0.02, MaxTransmittance)

	// AR(1) fluctuation at trace resolution: per-step correlation is the
	// per-minute correlation raised to the step length.
	rho := math.Pow(tp.ARRho1Min, float64(resolutionMinutes))
	innov := tp.ARSigma * math.Sqrt(1-rho*rho)
	fastRho := math.Pow(FastRho1Min, float64(resolutionMinutes))
	fastInnov := tp.FastSigma * math.Sqrt(1-fastRho*fastRho)

	// Cloud-passage events: Poisson count, uniform start, exponential
	// duration, uniform attenuation depth. Events are restricted to
	// daylight so they affect the trace (night transmittance is moot).
	type event struct {
		start, end float64
		atten      float64
	}
	nEvents := poisson(p.rng, tp.EventsPerDay)
	events := make([]event, 0, nEvents)
	for i := 0; i < nEvents; i++ {
		daylight := sunsetMin - sunriseMin
		if daylight <= 0 {
			break
		}
		start := sunriseMin + p.rng.Float64()*daylight
		dur := p.rng.ExpFloat64() * tp.EventMeanMinutes
		atten := tp.EventAttenMin + p.rng.Float64()*(tp.EventAttenMax-tp.EventAttenMin)
		events = append(events, event{start: start, end: start + dur, atten: atten})
	}
	plan.Events = len(events)

	// Morning fog.
	fog := p.climate.Fog
	if fog.Probability > 0 && p.rng.Float64() < fog.Probability {
		plan.Foggy = true
		plan.BurnOffMin = sunriseMin + fog.BurnOffMeanMinutes + p.rng.NormFloat64()*fog.BurnOffStdMinutes
	}

	for i := 0; i < perDay; i++ {
		minutes := float64(i * resolutionMinutes)
		// Advance both AR(1) components once per sample.
		p.arState = rho*p.arState + innov*p.rng.NormFloat64()
		p.fastState = fastRho*p.fastState + fastInnov*p.rng.NormFloat64()
		v := plan.Base + p.arState + p.fastState
		for _, e := range events {
			if minutes >= e.start && minutes < e.end {
				v *= e.atten
			}
		}
		if plan.Foggy {
			v *= fogFactor(minutes, plan.BurnOffMin, fog)
		}
		out[i] = clamp(v, 0, MaxTransmittance)
	}
	return plan, nil
}

// fogFactor returns the multiplicative fog attenuation at a clock minute.
func fogFactor(minutes, burnOff float64, fog FogParams) float64 {
	if minutes >= burnOff+fog.RampMinutes {
		return 1
	}
	if minutes <= burnOff {
		return fog.Attenuation
	}
	// Linear ramp from Attenuation to 1 over RampMinutes.
	frac := (minutes - burnOff) / fog.RampMinutes
	return fog.Attenuation + (1-fog.Attenuation)*frac
}

// poisson draws a Poisson-distributed count via Knuth's method; adequate
// for the small rates used here.
func poisson(rng *rand.Rand, lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	l := math.Exp(-lambda)
	k := 0
	p := 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
		if k > 10000 { // safety for absurd λ
			return k
		}
	}
}

func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// Preset climates. Parameters are chosen so the generated traces land in
// the qualitative regimes of the paper's six NREL sites: desert sites are
// dominated by clear days (low prediction error), mountain/continental and
// coastal sites mix all types (high error), and the marine site adds
// morning fog.
var (
	// Desert is an arid, high-insolation climate (paper: NPCS/NV, PFCI/AZ).
	Desert = Climate{
		Name: "desert",
		Transition: [4][4]float64{
			{0.88, 0.08, 0.01, 0.03},
			{0.60, 0.25, 0.05, 0.10},
			{0.45, 0.25, 0.20, 0.10},
			{0.55, 0.20, 0.05, 0.20},
		},
		Types: [4]TypeParams{
			{BaseMean: 1.00, BaseStd: 0.02, ARRho1Min: 0.995, ARSigma: 0.01, FastSigma: 0.015, EventsPerDay: 0.3, EventMeanMinutes: 20, EventAttenMin: 0.5, EventAttenMax: 0.9},
			{BaseMean: 0.90, BaseStd: 0.05, ARRho1Min: 0.99, ARSigma: 0.05, FastSigma: 0.12, EventsPerDay: 4, EventMeanMinutes: 25, EventAttenMin: 0.35, EventAttenMax: 0.8},
			{BaseMean: 0.45, BaseStd: 0.10, ARRho1Min: 0.995, ARSigma: 0.08, FastSigma: 0.05, EventsPerDay: 2, EventMeanMinutes: 60, EventAttenMin: 0.3, EventAttenMax: 0.7},
			{BaseMean: 0.75, BaseStd: 0.10, ARRho1Min: 0.99, ARSigma: 0.10, FastSigma: 0.15, EventsPerDay: 6, EventMeanMinutes: 35, EventAttenMin: 0.2, EventAttenMax: 0.7},
		},
		SeasonalAmplitude: 0.10,
	}

	// Continental is a variable mid-latitude climate with frequent frontal
	// systems (paper: SPMD/CO, ORNL/TN).
	Continental = Climate{
		Name: "continental",
		Transition: [4][4]float64{
			{0.55, 0.20, 0.10, 0.15},
			{0.30, 0.30, 0.15, 0.25},
			{0.20, 0.25, 0.35, 0.20},
			{0.25, 0.30, 0.15, 0.30},
		},
		Types: [4]TypeParams{
			{BaseMean: 0.98, BaseStd: 0.03, ARRho1Min: 0.995, ARSigma: 0.02, FastSigma: 0.03, EventsPerDay: 1, EventMeanMinutes: 15, EventAttenMin: 0.4, EventAttenMax: 0.85},
			{BaseMean: 0.82, BaseStd: 0.08, ARRho1Min: 0.99, ARSigma: 0.08, FastSigma: 0.20, EventsPerDay: 8, EventMeanMinutes: 25, EventAttenMin: 0.25, EventAttenMax: 0.75},
			{BaseMean: 0.32, BaseStd: 0.10, ARRho1Min: 0.995, ARSigma: 0.07, FastSigma: 0.06, EventsPerDay: 3, EventMeanMinutes: 90, EventAttenMin: 0.3, EventAttenMax: 0.8},
			{BaseMean: 0.65, BaseStd: 0.12, ARRho1Min: 0.985, ARSigma: 0.14, FastSigma: 0.25, EventsPerDay: 12, EventMeanMinutes: 30, EventAttenMin: 0.15, EventAttenMax: 0.65},
		},
		SeasonalAmplitude: 0.30,
	}

	// Humid is a humid subtropical/eastern climate with broad cloud decks
	// (paper: ECSU/NC).
	Humid = Climate{
		Name: "humid",
		Transition: [4][4]float64{
			{0.60, 0.22, 0.08, 0.10},
			{0.32, 0.33, 0.15, 0.20},
			{0.18, 0.27, 0.38, 0.17},
			{0.28, 0.30, 0.17, 0.25},
		},
		Types: [4]TypeParams{
			{BaseMean: 0.95, BaseStd: 0.04, ARRho1Min: 0.995, ARSigma: 0.03, FastSigma: 0.03, EventsPerDay: 1.5, EventMeanMinutes: 20, EventAttenMin: 0.4, EventAttenMax: 0.85},
			{BaseMean: 0.78, BaseStd: 0.08, ARRho1Min: 0.99, ARSigma: 0.09, FastSigma: 0.18, EventsPerDay: 7, EventMeanMinutes: 30, EventAttenMin: 0.3, EventAttenMax: 0.75},
			{BaseMean: 0.30, BaseStd: 0.08, ARRho1Min: 0.995, ARSigma: 0.06, FastSigma: 0.06, EventsPerDay: 2, EventMeanMinutes: 120, EventAttenMin: 0.35, EventAttenMax: 0.8},
			{BaseMean: 0.60, BaseStd: 0.12, ARRho1Min: 0.985, ARSigma: 0.13, FastSigma: 0.22, EventsPerDay: 10, EventMeanMinutes: 35, EventAttenMin: 0.2, EventAttenMax: 0.7},
		},
		SeasonalAmplitude: 0.25,
	}

	// Marine is a coastal climate with a persistent morning marine layer
	// (paper: HSU/CA).
	Marine = Climate{
		Name: "marine",
		Transition: [4][4]float64{
			{0.55, 0.25, 0.10, 0.10},
			{0.30, 0.35, 0.18, 0.17},
			{0.18, 0.30, 0.37, 0.15},
			{0.27, 0.32, 0.18, 0.23},
		},
		Types: [4]TypeParams{
			{BaseMean: 0.95, BaseStd: 0.04, ARRho1Min: 0.995, ARSigma: 0.03, FastSigma: 0.03, EventsPerDay: 1, EventMeanMinutes: 20, EventAttenMin: 0.45, EventAttenMax: 0.85},
			{BaseMean: 0.78, BaseStd: 0.08, ARRho1Min: 0.99, ARSigma: 0.08, FastSigma: 0.16, EventsPerDay: 6, EventMeanMinutes: 30, EventAttenMin: 0.3, EventAttenMax: 0.75},
			{BaseMean: 0.35, BaseStd: 0.09, ARRho1Min: 0.995, ARSigma: 0.06, FastSigma: 0.06, EventsPerDay: 2, EventMeanMinutes: 100, EventAttenMin: 0.3, EventAttenMax: 0.75},
			{BaseMean: 0.62, BaseStd: 0.11, ARRho1Min: 0.985, ARSigma: 0.12, FastSigma: 0.20, EventsPerDay: 9, EventMeanMinutes: 30, EventAttenMin: 0.2, EventAttenMax: 0.7},
		},
		Fog: FogParams{
			Probability:        0.35,
			Attenuation:        0.30,
			BurnOffMeanMinutes: 180,
			BurnOffStdMinutes:  60,
			RampMinutes:        45,
		},
		SeasonalAmplitude: 0.20,
	}
)
