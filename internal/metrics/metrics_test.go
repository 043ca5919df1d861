package metrics

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPairErrors(t *testing.T) {
	p := Pair{Predicted: 80, SlotStart: 100, SlotMean: 90}
	if p.Error() != 10 {
		t.Errorf("Error = %v, want 10", p.Error())
	}
}

func TestNewAccumulatorValidation(t *testing.T) {
	if _, err := NewAccumulator(-1); err == nil {
		t.Error("negative threshold accepted")
	}
	if _, err := NewAccumulator(math.NaN()); err == nil {
		t.Error("NaN threshold accepted")
	}
	if _, err := NewAccumulator(0); err != nil {
		t.Error("zero threshold rejected")
	}
}

func TestPeakThreshold(t *testing.T) {
	if PeakThreshold(1000, 0.1) != 100 {
		t.Error("PeakThreshold arithmetic")
	}
	if PeakThreshold(-5, 0.1) != 0 {
		t.Error("negative peak should clamp")
	}
}

func TestAccumulatorBasics(t *testing.T) {
	a, _ := NewAccumulator(0)
	a.Add(90, 100)  // err 10
	a.Add(110, 100) // err −10
	if a.N() != 2 || a.OutsideROI() != 0 {
		t.Fatalf("counts: %d %d", a.N(), a.OutsideROI())
	}
	if got := a.MAPE(); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("MAPE = %v, want 0.1", got)
	}
	if got := a.MAE(); got != 10 {
		t.Errorf("MAE = %v, want 10", got)
	}
	if got := a.RMSE(); got != 10 {
		t.Errorf("RMSE = %v, want 10", got)
	}
	if got := a.MBE(); got != 0 {
		t.Errorf("MBE = %v, want 0 (symmetric errors)", got)
	}
	if got := a.MaxAbsError(); got != 10 {
		t.Errorf("MaxAbsError = %v", got)
	}
}

func TestROIFilterExcludesSmallAndZero(t *testing.T) {
	a, _ := NewAccumulator(50)
	a.Add(0, 100) // in ROI: |err|/ref = 1
	a.Add(0, 49)  // below threshold: excluded
	a.Add(0, 0)   // night: excluded
	a.Add(5, -3)  // nonsense negative reference: excluded
	if a.N() != 1 {
		t.Fatalf("N = %d, want 1", a.N())
	}
	if a.OutsideROI() != 3 {
		t.Errorf("OutsideROI = %d, want 3", a.OutsideROI())
	}
	if a.MAPE() != 1 {
		t.Errorf("MAPE = %v, want 1", a.MAPE())
	}
}

func TestEmptyAccumulatorReportsZeros(t *testing.T) {
	a, _ := NewAccumulator(10)
	if a.MAPE() != 0 || a.RMSE() != 0 || a.MAE() != 0 || a.MBE() != 0 {
		t.Error("empty accumulator should report zeros")
	}
	r := a.Snapshot()
	if r.Samples != 0 || r.MAPE != 0 {
		t.Error("empty snapshot mismatch")
	}
}

func TestRMSEOutlierSensitivity(t *testing.T) {
	// The paper's argument for MAPE over RMSE: one large outlier skews
	// RMSE far more than MAPE. Construct 99 perfect predictions and one
	// huge miss.
	a, _ := NewAccumulator(0)
	for i := 0; i < 99; i++ {
		a.Add(100, 100)
	}
	a.Add(0, 1000) // outlier: error 1000
	mape := a.MAPE()
	rmse := a.RMSE()
	// MAPE: (99·0 + 1)/100 = 1%.
	if math.Abs(mape-0.01) > 1e-12 {
		t.Errorf("MAPE = %v, want 0.01", mape)
	}
	// RMSE: sqrt(1000²/100) = 100 — dominated by the outlier.
	if math.Abs(rmse-100) > 1e-9 {
		t.Errorf("RMSE = %v, want 100", rmse)
	}
}

func TestMBESign(t *testing.T) {
	a, _ := NewAccumulator(0)
	a.Add(80, 100) // under-prediction → positive bias
	a.Add(90, 100)
	if a.MBE() <= 0 {
		t.Errorf("MBE = %v, want positive for under-prediction", a.MBE())
	}
}

func TestReset(t *testing.T) {
	a, _ := NewAccumulator(25)
	a.Add(0, 100)
	a.Add(0, 10)
	a.Reset()
	if a.N() != 0 || a.OutsideROI() != 0 || a.MAPE() != 0 {
		t.Error("Reset incomplete")
	}
	// Threshold survives reset.
	a.Add(0, 10)
	if a.N() != 0 || a.OutsideROI() != 1 {
		t.Error("threshold lost on reset")
	}
}

func TestSummarize(t *testing.T) {
	pairs := []Pair{
		{Predicted: 90, SlotStart: 100, SlotMean: 95},
		{Predicted: 50, SlotStart: 40, SlotMean: 60},
		{Predicted: 5, SlotStart: 0, SlotMean: 2}, // night-ish: excluded at threshold 10
	}
	mape, mapePrime, err := Summarize(pairs, 10)
	if err != nil {
		t.Fatal(err)
	}
	if mape.Samples != 2 || mapePrime.Samples != 2 {
		t.Fatalf("samples: %d %d", mape.Samples, mapePrime.Samples)
	}
	// MAPE: (|95−90|/95 + |60−50|/60)/2.
	wantMean := (5.0/95 + 10.0/60) / 2
	if math.Abs(mape.MAPE-wantMean) > 1e-12 {
		t.Errorf("MAPE = %v, want %v", mape.MAPE, wantMean)
	}
	// MAPE′: (|100−90|/100 + |40−50|/40)/2.
	wantStart := (10.0/100 + 10.0/40) / 2
	if math.Abs(mapePrime.MAPE-wantStart) > 1e-12 {
		t.Errorf("MAPE' = %v, want %v", mapePrime.MAPE, wantStart)
	}
	if _, _, err := Summarize(pairs, -1); err == nil {
		t.Error("negative threshold accepted")
	}
}

func TestMAPEScaleInvarianceProperty(t *testing.T) {
	// MAPE must be invariant to rescaling predictions and references by
	// the same positive constant — the paper's motivation for using it
	// across different data sets.
	f := func(seed int64, scaleRaw float64) bool {
		scale := 0.1 + math.Mod(math.Abs(scaleRaw), 100)
		rng := rand.New(rand.NewSource(seed))
		a1, _ := NewAccumulator(10)
		a2, _ := NewAccumulator(10 * scale)
		for i := 0; i < 200; i++ {
			ref := rng.Float64() * 500
			pred := ref * (0.5 + rng.Float64())
			a1.Add(pred, ref)
			a2.Add(pred*scale, ref*scale)
		}
		return math.Abs(a1.MAPE()-a2.MAPE()) < 1e-9 && a1.N() == a2.N()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestPerfectPredictionZeroEverything(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, _ := NewAccumulator(1)
		for i := 0; i < 50; i++ {
			ref := 1 + rng.Float64()*100
			a.Add(ref, ref)
		}
		return a.MAPE() == 0 && a.RMSE() == 0 && a.MAE() == 0 && a.MBE() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestSnapshotMatchesAccessors(t *testing.T) {
	a, _ := NewAccumulator(5)
	rng := rand.New(rand.NewSource(77))
	for i := 0; i < 100; i++ {
		a.Add(rng.Float64()*200, rng.Float64()*200)
	}
	r := a.Snapshot()
	if r.MAPE != a.MAPE() || r.RMSE != a.RMSE() || r.MAE != a.MAE() ||
		r.MBE != a.MBE() || r.MaxAbsErr != a.MaxAbsError() ||
		r.Samples != a.N() || r.OutsideROI != a.OutsideROI() {
		t.Error("snapshot diverges from accessors")
	}
}

func TestAddInROIMatchesAdd(t *testing.T) {
	// The hoisted-reciprocal fast path must agree with Add to float
	// association tolerance on every statistic, and the bulk out-of-ROI
	// counter must match per-sample exclusion.
	slow, err := NewAccumulator(10)
	if err != nil {
		t.Fatal(err)
	}
	fast, err := MakeAccumulator(10)
	if err != nil {
		t.Fatal(err)
	}
	preds := []float64{5, 80, 120, 0, 33, 250, 90}
	refs := []float64{3, 100, 100, 9.9, 40, 200, 10}
	outside := 0
	for i := range preds {
		slow.Add(preds[i], refs[i])
		if refs[i] < 10 || refs[i] <= 0 {
			outside++
			continue
		}
		fast.AddInROI(preds[i], refs[i], 1/refs[i])
	}
	fast.AddOutsideROI(outside)
	a, b := slow.Snapshot(), fast.Snapshot()
	if a.Samples != b.Samples || a.OutsideROI != b.OutsideROI {
		t.Fatalf("counts differ: %+v vs %+v", a, b)
	}
	if math.Abs(a.MAPE-b.MAPE) > 1e-12 || math.Abs(a.RMSE-b.RMSE) > 1e-12 ||
		math.Abs(a.MAE-b.MAE) > 1e-12 || math.Abs(a.MBE-b.MBE) > 1e-12 ||
		a.MaxAbsErr != b.MaxAbsErr {
		t.Fatalf("statistics differ: %+v vs %+v", a, b)
	}
}

func TestMakeAccumulatorValidation(t *testing.T) {
	if _, err := MakeAccumulator(-1); err == nil {
		t.Error("negative threshold accepted")
	}
	if _, err := MakeAccumulator(math.NaN()); err == nil {
		t.Error("NaN threshold accepted")
	}
}

func TestAddOutsideROINegativeIgnored(t *testing.T) {
	a, _ := MakeAccumulator(1)
	a.AddOutsideROI(-5)
	if a.OutsideROI() != 0 {
		t.Error("negative count must be ignored")
	}
}
