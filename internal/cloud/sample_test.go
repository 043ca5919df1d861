package cloud

import (
	"math/rand"
	"reflect"
	"testing"
)

// TestSampleClimateAlwaysValid hammers SampleClimate across presets,
// seeds and jitters: every sampled climate must pass Validate (the
// function promises never to hand the generator an invalid world).
func TestSampleClimateAlwaysValid(t *testing.T) {
	jitters := []float64{0, 0.05, 0.3, 0.6, 0.95}
	for _, base := range presets {
		name := base.Name
		for _, jitter := range jitters {
			rng := rand.New(rand.NewSource(0xf1ee7))
			for i := 0; i < 200; i++ {
				c, err := SampleClimate(base, rng, jitter)
				if err != nil {
					t.Fatalf("%s jitter %.2f draw %d: %v", name, jitter, i, err)
				}
				if err := c.Validate(); err != nil {
					t.Fatalf("%s jitter %.2f draw %d: invalid sample: %v", name, jitter, i, err)
				}
				if c.Name == base.Name {
					t.Fatalf("%s: sampled climate kept the preset name", name)
				}
			}
		}
	}
}

// TestSampleClimateDeterministic pins the seed contract: the same seed
// yields the identical climate, different seeds differ.
func TestSampleClimateDeterministic(t *testing.T) {
	draw := func(seed int64) Climate {
		t.Helper()
		c, err := SampleClimate(Continental, rand.New(rand.NewSource(seed)), 0.4)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	a, b := draw(42), draw(42)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different climates")
	}
	if reflect.DeepEqual(draw(42), draw(43)) {
		t.Fatal("different seeds produced identical climates")
	}
}

// TestSampleClimateZeroJitter checks that jitter 0 reproduces the preset
// parameters exactly (modulo the renormalisation no-op and the name).
func TestSampleClimateZeroJitter(t *testing.T) {
	c, err := SampleClimate(Marine, rand.New(rand.NewSource(1)), 0)
	if err != nil {
		t.Fatal(err)
	}
	// Transition rows pass through a renormalising division, so they are
	// only equal to within an ulp; everything else must match exactly.
	for i := range c.Transition {
		for j := range c.Transition[i] {
			if got, want := c.Transition[i][j], Marine.Transition[i][j]; got < want-1e-12 || got > want+1e-12 {
				t.Fatalf("transition[%d][%d] = %v, want %v", i, j, got, want)
			}
		}
	}
	c.Name = Marine.Name
	c.Transition = Marine.Transition
	if !reflect.DeepEqual(c, Marine) {
		t.Fatalf("zero-jitter sample diverged from preset:\n got %+v\nwant %+v", c, Marine)
	}
}

// TestSampleClimateRejects covers the error paths.
func TestSampleClimateRejects(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := SampleClimate(Climate{}, rng, 0.1); err == nil {
		t.Error("invalid base accepted")
	}
	if _, err := SampleClimate(Desert, rng, -0.1); err == nil {
		t.Error("negative jitter accepted")
	}
	if _, err := SampleClimate(Desert, rng, 1); err == nil {
		t.Error("jitter 1 accepted")
	}
}

// TestSampledClimateGenerates runs the generator end to end on sampled
// climates: the whole point is that a sampled world is usable.
func TestSampledClimateGenerates(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	c, err := SampleClimate(Humid, rng, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	proc, err := NewProcess(c, 99)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]float64, 1440/15)
	for day := 0; day < 5; day++ {
		if _, err := proc.GenerateDay(day+1, 15, 360, 1080, out); err != nil {
			t.Fatal(err)
		}
		for i, v := range out {
			if v < 0 || v > MaxTransmittance {
				t.Fatalf("day %d sample %d transmittance %v out of range", day, i, v)
			}
		}
	}
}
