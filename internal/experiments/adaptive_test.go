package experiments

import (
	"reflect"
	"runtime"
	"testing"
)

func TestTableVI(t *testing.T) {
	cfg := quick()
	cfg.Ns = []int{24}
	rows, err := TableVI(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(cfg.Sites) {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Degenerate {
			continue
		}
		if len(r.Policies) != 4 {
			t.Fatalf("%s: %d policies", r.Site, len(r.Policies))
		}
		if r.Oracle >= r.Static {
			t.Errorf("%s: oracle %.4f not below static %.4f", r.Site, r.Oracle, r.Static)
		}
		for _, p := range r.Policies {
			if p.Report.MAPE < r.Oracle-1e-9 {
				t.Errorf("%s/%s: beats oracle", r.Site, p.Policy)
			}
			// Realizable self-tuning must stay within 30 % of the
			// hindsight-best static configuration on these traces.
			if p.Report.MAPE > r.Static*1.3 {
				t.Errorf("%s/%s: %.4f far above static %.4f", r.Site, p.Policy, p.Report.MAPE, r.Static)
			}
		}
	}
}

// TestTableVIWorkerCountInvariant pins TableVI's rows to be identical
// whether its (site, N) cells run one at a time or on GOMAXPROCS workers.
func TestTableVIWorkerCountInvariant(t *testing.T) {
	seqCfg := QuickConfig()
	seqCfg.Workers = 1
	parCfg := QuickConfig()
	parCfg.Workers = max(2, runtime.GOMAXPROCS(0))
	seq, err := TableVI(seqCfg)
	if err != nil {
		t.Fatal(err)
	}
	par, err := TableVI(parCfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(seq) != len(seqCfg.Sites)*len(seqCfg.Ns) {
		t.Fatalf("%d rows for %d sites × %d Ns", len(seq), len(seqCfg.Sites), len(seqCfg.Ns))
	}
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("TableVI rows differ between 1 and %d workers:\nseq: %+v\npar: %+v", parCfg.Workers, seq, par)
	}
}

func TestTableVIDegenerate(t *testing.T) {
	cfg := quick()
	cfg.Sites = []string{"SPMD"}
	cfg.Ns = []int{288}
	rows, err := TableVI(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !rows[0].Degenerate || len(rows[0].Policies) != 0 {
		t.Errorf("degenerate row = %+v", rows[0])
	}
}

func TestPolicyNamesCount(t *testing.T) {
	if len(PolicyNames()) != 4 {
		t.Error("policy name list out of sync")
	}
}
