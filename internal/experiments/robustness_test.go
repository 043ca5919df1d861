package experiments

import (
	"reflect"
	"runtime"
	"testing"

	"solarpred/internal/faults"
)

func TestRobustness(t *testing.T) {
	cfg := quick()
	cfg.Sites = []string{"NPCS"}
	rows, err := Robustness(cfg, 48)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(faults.Scenarios()) {
		t.Fatalf("rows = %d, want %d", len(rows), len(faults.Scenarios()))
	}
	var sawDegradation bool
	for _, r := range rows {
		if r.CleanMAPE <= 0 {
			t.Fatalf("%s/%s: clean MAPE %v", r.Site, r.Scenario.Kind, r.CleanMAPE)
		}
		if r.FaultyMAPE <= 0 {
			t.Fatalf("%s/%s: faulty MAPE %v", r.Site, r.Scenario.Kind, r.FaultyMAPE)
		}
		// Faults feeding the predictor bad measurements should never
		// *improve* accuracy materially.
		if r.FaultyMAPE < r.CleanMAPE-0.005 {
			t.Errorf("%s/%s: fault improved MAPE (%.4f -> %.4f)",
				r.Site, r.Scenario.Kind, r.CleanMAPE, r.FaultyMAPE)
		}
		if r.DegradationPoints() > 0.01 {
			sawDegradation = true
		}
		// Graceful degradation: even the worst scenario must not
		// explode the error by an order of magnitude.
		if r.FaultyMAPE > r.CleanMAPE*5 {
			t.Errorf("%s/%s: catastrophic degradation %.4f -> %.4f",
				r.Site, r.Scenario.Kind, r.CleanMAPE, r.FaultyMAPE)
		}
	}
	if !sawDegradation {
		t.Error("no scenario degraded accuracy measurably; injectors too weak to test anything")
	}
}

func TestRobustnessValidation(t *testing.T) {
	bad := quick()
	bad.Sites = nil
	if _, err := Robustness(bad, 48); err == nil {
		t.Error("invalid config accepted")
	}
}

// TestRobustnessWorkerCountInvariant pins Robustness's rows to be
// identical, in site-major order, whether its (site, scenario) cells run
// one at a time or on GOMAXPROCS workers.
func TestRobustnessWorkerCountInvariant(t *testing.T) {
	seqCfg := QuickConfig()
	seqCfg.Workers = 1
	parCfg := QuickConfig()
	parCfg.Workers = max(2, runtime.GOMAXPROCS(0))
	seq, err := Robustness(seqCfg, 48)
	if err != nil {
		t.Fatal(err)
	}
	par, err := Robustness(parCfg, 48)
	if err != nil {
		t.Fatal(err)
	}
	scenarios := faults.Scenarios()
	if len(seq) != len(seqCfg.Sites)*len(scenarios) {
		t.Fatalf("%d rows for %d sites × %d scenarios", len(seq), len(seqCfg.Sites), len(scenarios))
	}
	for i, r := range seq {
		if r.Site != seqCfg.Sites[i/len(scenarios)] || r.Scenario != scenarios[i%len(scenarios)] {
			t.Fatalf("row %d is (%s, %v), want site-major order", i, r.Site, r.Scenario.Kind)
		}
	}
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("Robustness rows differ between 1 and %d workers:\nseq: %+v\npar: %+v", parCfg.Workers, seq, par)
	}
}
