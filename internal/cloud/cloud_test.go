package cloud

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDayTypeString(t *testing.T) {
	want := map[DayType]string{Clear: "clear", Partly: "partly", Overcast: "overcast", Mixed: "mixed"}
	for d, s := range want {
		if d.String() != s {
			t.Errorf("%d.String() = %q, want %q", d, d.String(), s)
		}
	}
	if DayType(99).String() != "DayType(99)" {
		t.Error("unknown day type formatting")
	}
}

// presets are the built-in climates.
var presets = []Climate{Desert, Continental, Humid, Marine}

func TestPresetsValid(t *testing.T) {
	names := map[string]bool{}
	for _, c := range presets {
		if err := c.Validate(); err != nil {
			t.Errorf("preset %q invalid: %v", c.Name, err)
		}
		if c.Name == "" || names[c.Name] {
			t.Errorf("preset name %q empty or repeated", c.Name)
		}
		names[c.Name] = true
	}
}

func TestValidateRejectsBadClimates(t *testing.T) {
	base := Desert

	c := base
	c.Transition[0][0] = 0.5 // row no longer sums to 1
	if err := c.Validate(); err == nil {
		t.Error("unnormalised transition row accepted")
	}

	c = base
	c.Transition[1][2] = -0.1
	if err := c.Validate(); err == nil {
		t.Error("negative probability accepted")
	}

	c = base
	c.Types[0].ARRho1Min = 1.0
	if err := c.Validate(); err == nil {
		t.Error("rho=1 accepted")
	}

	c = base
	c.Types[2].EventAttenMin = 0.9
	c.Types[2].EventAttenMax = 0.1
	if err := c.Validate(); err == nil {
		t.Error("inverted attenuation bounds accepted")
	}

	c = base
	c.Types[1].BaseMean = 2.0
	if err := c.Validate(); err == nil {
		t.Error("BaseMean above MaxTransmittance accepted")
	}

	c = base
	c.Fog.Probability = 1.5
	if err := c.Validate(); err == nil {
		t.Error("fog probability > 1 accepted")
	}

	c = base
	c.SeasonalAmplitude = 2
	if err := c.Validate(); err == nil {
		t.Error("seasonal amplitude > 1 accepted")
	}

	c = base
	c.Types[3].EventsPerDay = -1
	if err := c.Validate(); err == nil {
		t.Error("negative events/day accepted")
	}
}

func TestNewProcessRejectsInvalid(t *testing.T) {
	c := Desert
	c.Transition[0][0] = 0
	if _, err := NewProcess(c, 1); err == nil {
		t.Error("NewProcess accepted invalid climate")
	}
}

func TestGenerateDayBounds(t *testing.T) {
	for _, c := range presets {
		name := c.Name
		p, err := NewProcess(c, 12345)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out := make([]float64, 288)
		for doy := 1; doy <= 60; doy++ {
			plan, err := p.GenerateDay(doy, 5, 360, 1080, out)
			if err != nil {
				t.Fatalf("%s day %d: %v", name, doy, err)
			}
			if plan.Type < Clear || plan.Type > Mixed {
				t.Fatalf("%s: bad day type %v", name, plan.Type)
			}
			for i, v := range out {
				if v < 0 || v > MaxTransmittance {
					t.Fatalf("%s day %d sample %d: transmittance %.3f out of bounds", name, doy, i, v)
				}
				if math.IsNaN(v) {
					t.Fatalf("%s day %d sample %d: NaN", name, doy, i)
				}
			}
		}
	}
}

func TestGenerateDayLengthValidation(t *testing.T) {
	p, _ := NewProcess(Desert, 1)
	if _, err := p.GenerateDay(1, 5, 360, 1080, make([]float64, 100)); err == nil {
		t.Error("wrong buffer length accepted")
	}
}

func TestDeterminism(t *testing.T) {
	gen := func(seed int64) []float64 {
		p, _ := NewProcess(Continental, seed)
		out := make([]float64, 288)
		all := make([]float64, 0, 288*10)
		for doy := 1; doy <= 10; doy++ {
			if _, err := p.GenerateDay(doy, 5, 360, 1080, out); err != nil {
				t.Fatal(err)
			}
			all = append(all, out...)
		}
		return all
	}
	a, b := gen(777), gen(777)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at sample %d", i)
		}
	}
	c := gen(778)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical traces")
	}
}

func TestDesertSunnierThanContinental(t *testing.T) {
	mean := func(c Climate) float64 {
		p, _ := NewProcess(c, 99)
		out := make([]float64, 288)
		var sum float64
		var n int
		for doy := 1; doy <= 200; doy++ {
			if _, err := p.GenerateDay(doy, 5, 360, 1080, out); err != nil {
				t.Fatal(err)
			}
			// Only daylight samples matter.
			for i := 72; i < 216; i++ {
				sum += out[i]
				n++
			}
		}
		return sum / float64(n)
	}
	d, c := mean(Desert), mean(Continental)
	if d <= c {
		t.Errorf("desert mean transmittance %.3f should exceed continental %.3f", d, c)
	}
	if d < 0.8 {
		t.Errorf("desert mean transmittance %.3f unexpectedly low", d)
	}
}

func TestDesertLessVariableThanContinental(t *testing.T) {
	// Day-to-day variance of daily means: continental should exceed desert.
	dayVar := func(c Climate) float64 {
		p, _ := NewProcess(c, 4242)
		out := make([]float64, 288)
		var means []float64
		for doy := 1; doy <= 200; doy++ {
			if _, err := p.GenerateDay(doy, 5, 360, 1080, out); err != nil {
				t.Fatal(err)
			}
			var s float64
			for i := 72; i < 216; i++ {
				s += out[i]
			}
			means = append(means, s/144)
		}
		var m, ss float64
		for _, v := range means {
			m += v
		}
		m /= float64(len(means))
		for _, v := range means {
			ss += (v - m) * (v - m)
		}
		return ss / float64(len(means))
	}
	if dv, cv := dayVar(Desert), dayVar(Continental); dv >= cv {
		t.Errorf("desert day-to-day variance %.4f should be below continental %.4f", dv, cv)
	}
}

func TestMarineFogOccursAndAttenuatesMornings(t *testing.T) {
	p, _ := NewProcess(Marine, 31)
	out := make([]float64, 288)
	fogDays, total := 0, 300
	var fogMorning, clearMorning []float64
	for doy := 1; doy <= total; doy++ {
		plan, err := p.GenerateDay(doy, 5, 360, 1080, out)
		if err != nil {
			t.Fatal(err)
		}
		// Morning window: sunrise to sunrise+2h (samples 72..96).
		var s float64
		for i := 72; i < 96; i++ {
			s += out[i]
		}
		s /= 24
		if plan.Foggy {
			fogDays++
			fogMorning = append(fogMorning, s)
		} else {
			clearMorning = append(clearMorning, s)
		}
	}
	if fogDays < total/10 || fogDays > total*2/3 {
		t.Errorf("fog days = %d of %d, expected around 35%%", fogDays, total)
	}
	mf := meanOf(fogMorning)
	mc := meanOf(clearMorning)
	if mf >= mc {
		t.Errorf("foggy mornings (%.3f) should be darker than clear mornings (%.3f)", mf, mc)
	}
}

func meanOf(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	if len(xs) == 0 {
		return 0
	}
	return s / float64(len(xs))
}

func TestFogFactorShape(t *testing.T) {
	fog := FogParams{Attenuation: 0.3, RampMinutes: 60}
	if f := fogFactor(100, 200, fog); f != 0.3 {
		t.Errorf("pre-burnoff factor = %v", f)
	}
	if f := fogFactor(230, 200, fog); math.Abs(f-0.65) > 1e-12 {
		t.Errorf("mid-ramp factor = %v, want 0.65", f)
	}
	if f := fogFactor(261, 200, fog); f != 1 {
		t.Errorf("post-ramp factor = %v", f)
	}
}

func TestSeasonFactor(t *testing.T) {
	if s := seasonFactor(172); s != 0 {
		t.Errorf("solstice factor = %v", s)
	}
	if s := seasonFactor(355); s < 0.95 || s > 1 {
		t.Errorf("winter factor = %v, want ≈1", s)
	}
	// Wrap-around: day 1 is close to winter solstice.
	if s := seasonFactor(1); s < 0.9 {
		t.Errorf("day-1 factor = %v, want ≈1", s)
	}
	f := func(doyRaw int) bool {
		doy := 1 + abs(doyRaw)%365
		s := seasonFactor(doy)
		return s >= 0 && s <= 1.0+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func TestPoisson(t *testing.T) {
	p, _ := NewProcess(Desert, 5)
	var sum int
	const n = 3000
	const lambda = 3.5
	for i := 0; i < n; i++ {
		sum += poisson(p.rng, lambda)
	}
	mean := float64(sum) / n
	if math.Abs(mean-lambda) > 0.2 {
		t.Errorf("poisson mean = %.2f, want ≈%.1f", mean, lambda)
	}
	if poisson(p.rng, 0) != 0 || poisson(p.rng, -1) != 0 {
		t.Error("nonpositive lambda must give 0")
	}
}

func TestDayTypePersistence(t *testing.T) {
	// Desert Markov chain must produce long clear runs: P(clear→clear)=0.88.
	p, _ := NewProcess(Desert, 17)
	out := make([]float64, 288)
	var clearRuns, clears, transitions int
	prevClear := false
	for doy := 1; doy <= 365; doy++ {
		plan, err := p.GenerateDay(doy, 5, 360, 1080, out)
		if err != nil {
			t.Fatal(err)
		}
		isClear := plan.Type == Clear
		if isClear {
			clears++
			if !prevClear {
				clearRuns++
			}
		}
		if isClear != prevClear {
			transitions++
		}
		prevClear = isClear
	}
	if clears < 365/3 {
		t.Errorf("desert clear days = %d, expected majority", clears)
	}
	if clearRuns == 0 {
		t.Fatal("no clear runs at all")
	}
	if avg := float64(clears) / float64(clearRuns); avg < 2 {
		t.Errorf("mean clear-run length %.1f, expected persistent (≥2)", avg)
	}
}

func TestFastSigmaSeparatesSampleFromMean(t *testing.T) {
	// The fast scintillation component exists to make the slot-start
	// sample a noisy estimate of the slot mean (the mechanism behind the
	// paper's MAPE' ≫ MAPE). Verify directly: with FastSigma zeroed, the
	// within-slot spread of the transmittance collapses.
	spread := func(c Climate) float64 {
		p, err := NewProcess(c, 77)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]float64, 1440) // 1-minute resolution
		var sum float64
		var n int
		for doy := 150; doy < 170; doy++ {
			if _, err := p.GenerateDay(doy, 1, 360, 1080, out); err != nil {
				t.Fatal(err)
			}
			// 30-minute slots in daylight: deviation of first sample
			// from the slot mean.
			for s := 400; s+30 < 1040; s += 30 {
				var m float64
				for i := s; i < s+30; i++ {
					m += out[i]
				}
				m /= 30
				d := out[s] - m
				sum += d * d
				n++
			}
		}
		return sum / float64(n)
	}
	noisy := Continental
	calm := Continental
	for i := range calm.Types {
		calm.Types[i].FastSigma = 0
	}
	sNoisy, sCalm := spread(noisy), spread(calm)
	if sNoisy <= sCalm {
		t.Errorf("FastSigma should widen the sample-vs-mean spread: %.5f vs %.5f", sNoisy, sCalm)
	}
	// Cloud-passage edges and the slow AR drift also contribute
	// within-slot spread, so the scintillation term only needs to add a
	// clear multiple on top of that floor.
	if sNoisy < 1.5*sCalm {
		t.Errorf("scintillation effect too weak: %.5f vs %.5f", sNoisy, sCalm)
	}
}
