package harvest

import (
	"math"
	"testing"

	"solarpred/internal/core"
	"solarpred/internal/dataset"
	"solarpred/internal/timeseries"
)

// stepView generates a small slotted trace for the step-function tests.
func stepView(t *testing.T, site string, days, n int) *timeseries.SlotView {
	t.Helper()
	s, err := dataset.SiteByName(site)
	if err != nil {
		t.Fatal(err)
	}
	series, err := dataset.GenerateDays(s, days)
	if err != nil {
		t.Fatal(err)
	}
	v, err := series.Slot(n)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// TestSimMatchesSimulate drives a Sim by hand through the exact protocol
// Simulate follows and checks the two summaries are bit-identical —
// the contract that lets the fleet simulator reuse the step function
// without forking the closed-loop arithmetic.
func TestSimMatchesSimulate(t *testing.T) {
	v := stepView(t, "NPCS", 10, 24)
	cfg := DefaultConfig()

	pred, err := core.New(v.N, core.Params{Alpha: 0.7, D: 5, K: 2})
	if err != nil {
		t.Fatal(err)
	}
	want, err := Simulate(cfg, v, pred)
	if err != nil {
		t.Fatal(err)
	}

	pred2, err := core.New(v.N, core.Params{Alpha: 0.7, D: 5, K: 2})
	if err != nil {
		t.Fatal(err)
	}
	sim, err := NewSim(cfg, v.N)
	if err != nil {
		t.Fatal(err)
	}
	for tt := 0; tt < v.TotalSlots(); tt++ {
		j := tt % v.N
		if err := pred2.Observe(j, v.Start[tt]); err != nil {
			t.Fatal(err)
		}
		f, err := pred2.Predict()
		if err != nil {
			t.Fatal(err)
		}
		day, slot := v.Split(tt)
		sim.Step(f, v.MeanAt(day, slot))
	}
	got := sim.Result()
	if got != *want {
		t.Fatalf("step loop diverged from Simulate:\n got %+v\nwant %+v", got, *want)
	}
}

// TestSimLeakFactorMatchesStorageLeak pins Step's precomputed per-slot
// leak factor against a reference loop that repeats Step's arithmetic
// with a Storage.Leak call every slot: every Result field must be
// equal, over leakage rates including zero and several slot counts.
func TestSimLeakFactorMatchesStorageLeak(t *testing.T) {
	for _, n := range []int{24, 48, 96} {
		v := stepView(t, "SPMD", 12, n)
		for _, leak := range []float64{0, 0.001, 0.02, 0.3} {
			cfg := DefaultConfig()
			cfg.LeakagePerDay = leak
			sim, err := NewSim(cfg, n)
			if err != nil {
				t.Fatal(err)
			}
			store, err := NewStorage(cfg.StorageCapacityJ, cfg.ChargeEfficiency, cfg.LeakagePerDay, cfg.InitialFraction)
			if err != nil {
				t.Fatal(err)
			}
			slotSeconds := sim.SlotSeconds()
			var ref Result
			var dutySum, dutySumSq float64
			for tt := 0; tt < v.TotalSlots(); tt++ {
				day, slot := v.Split(tt)
				predicted := v.Start[tt] * 0.9
				actual := v.MeanAt(day, slot)
				sim.Step(predicted, actual)

				duty := cfg.Controller.Duty(cfg.Load, store, cfg.Panel.Power(predicted)*slotSeconds, slotSeconds)
				actualJ := cfg.Panel.Power(actual) * slotSeconds
				ref.HarvestedJ += actualJ
				ref.WastedJ += store.Charge(actualJ)
				want := cfg.Load.EnergyJ(duty, slotSeconds)
				got := store.Discharge(want)
				ref.ConsumedJ += got
				if got < want-1e-12 {
					ref.DownSlots++
				}
				store.Leak(1 / float64(n))
				dutySum += duty
				dutySumSq += duty * duty
				ref.Slots++
			}
			ref.MeanDuty = dutySum / float64(ref.Slots)
			if variance := dutySumSq/float64(ref.Slots) - ref.MeanDuty*ref.MeanDuty; variance > 0 {
				ref.DutyStd = math.Sqrt(variance)
			}
			ref.FinalFraction = store.Fraction()
			if got := sim.Result(); got != ref {
				t.Fatalf("N=%d leak=%v: Sim diverged from the Storage.Leak loop:\n got %+v\nwant %+v", n, leak, got, ref)
			}
		}
	}
}

// TestSimStepAllocationFree pins the fleet-scale contract: stepping a
// node costs zero heap allocations.
func TestSimStepAllocationFree(t *testing.T) {
	sim, err := NewSim(DefaultConfig(), 24)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		sim.Step(42.0, 40.0)
	})
	if allocs != 0 {
		t.Fatalf("Step allocates %.1f objects per call, want 0", allocs)
	}
}

// TestSimResultMidRun checks Result is a non-destructive snapshot: it
// can be read mid-run and again at the end.
func TestSimResultMidRun(t *testing.T) {
	sim, err := NewSim(DefaultConfig(), 24)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		sim.Step(30, 30)
	}
	mid := sim.Result()
	if mid.Slots != 10 {
		t.Fatalf("mid-run Slots = %d, want 10", mid.Slots)
	}
	for i := 0; i < 10; i++ {
		sim.Step(30, 30)
	}
	end := sim.Result()
	if end.Slots != 20 {
		t.Fatalf("end Slots = %d, want 20", end.Slots)
	}
	if end.HarvestedJ <= mid.HarvestedJ {
		t.Fatal("harvest total did not grow")
	}
}

// TestNewSimRejects covers the constructor's validation.
func TestNewSimRejects(t *testing.T) {
	if _, err := NewSim(Config{}, 24); err == nil {
		t.Error("invalid config accepted")
	}
	if _, err := NewSim(DefaultConfig(), 7); err == nil {
		t.Error("slots not dividing a day accepted")
	}
	if _, err := NewSim(DefaultConfig(), 0); err == nil {
		t.Error("zero slots accepted")
	}
}
