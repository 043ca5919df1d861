package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	rtmetrics "runtime/metrics"
	"sort"
	"strings"
	"sync"

	"solarpred/internal/expstore"
)

// metricDef is a registered metric: its name and unit as BENCHMARK.json
// declares them.
type metricDef struct {
	name string
	unit string
}

// endToEnd are the metrics a user of the system sees, reported by every
// workload's untraced run. Each workload defines its operation (README.md):
// a request for the serve workloads, one fleet.Run for fleet, one pass of
// the paper driver set for repro-full.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"latency_p50_ms", "ms"},
	{"saturation_rps", "1/s"},
	{"mem_live_mib", "MiB"},
}

// perLayer are the traced run's metrics. Every workload reports all of
// them; a layer the workload does not exercise reads 0.
var perLayer = []metricDef{
	{"error_frac", "ratio"},
	{"trace.overhead_frac", "ratio"},
	{"trace.unaccounted_frac", "ratio"},

	{"serve.http_self_us", "us"},
	{"serve.handler_us", "us"},
	{"serve.service_us", "us"},
	{"serve.encode_us", "us"},
	{"serve.compute_frac", "ratio"},
	{"serve.batcher_computations", "count"},
	{"serve.batcher_coalesced", "count"},
	{"serve.batcher_abandoned", "count"},
	{"serve.backlog_max", "count"},
	{"serve.shed", "count"},
	{"runtime.alloc_bytes_per_req", "B"},

	{"guard.forecast_ns", "ns"},
	{"guard.observe_ns", "ns"},

	{"expstore.series_hit_ratio", "ratio"},
	{"expstore.view_hit_ratio", "ratio"},
	{"expstore.eval_hit_ratio", "ratio"},
	{"expstore.grid_hit_ratio", "ratio"},
	{"expstore.misses", "count"},
	{"expstore.view_ms", "ms"},
	{"expstore.eval_ms", "ms"},

	{"optimize.grid_ms", "ms"},
	{"optimize.grid_cells_per_s", "1/s"},
	{"optimize.dynamic_ms", "ms"},

	{"dataset.trace_ms_per_site_day", "ms"},
	{"solar.clearsky_us_per_day", "us"},
	{"cloud.day_us", "us"},

	{"core.step_ns", "ns"},
	{"harvest.step_ns", "ns"},
	{"metrics.add_ns", "ns"},
	{"fleet.node_ns_per_slot", "ns"},
	{"fleet.agg_ns_per_node", "ns"},
	{"fleet.pool_util", "ratio"},
	{"fleet.parts_frac", "ratio"},
	{"fleet.node_slots_per_s", "1/s"},

	{"experiments.repro_s", "s"},
	{"experiments.tracegen_grid_frac", "ratio"},
	{"experiments.fig2_s", "s"},
	{"experiments.tableii_s", "s"},
	{"experiments.tableiii_s", "s"},
	{"experiments.tableiv_fig6_s", "s"},
	{"experiments.fig7_s", "s"},
	{"experiments.tablev_s", "s"},
	{"experiments.guidelines_s", "s"},
	{"experiments.baselines_s", "s"},
	{"experiments.ablation_s", "s"},
	{"experiments.algorithms_s", "s"},
	{"experiments.tablevi_s", "s"},
	{"experiments.daytype_s", "s"},
	{"experiments.robustness_s", "s"},
	{"experiments.seasonal_s", "s"},
	{"experiments.memory_s", "s"},

	{"runtime.gc_cpu_frac", "ratio"},
	{"runtime.alloc_bytes_per_op", "B"},

	{"loadgen.late_p50_ms", "ms"},
	{"loadgen.late_p99_ms", "ms"},
	{"loadgen.cold_frac", "ratio"},
	{"loadgen.grid_frac", "ratio"},
}

var unitOf = func() map[string]string {
	m := map[string]string{}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		m[d.name] = d.unit
	}
	return m
}()

// checkDeclared checks that BENCHMARK.json at the checkout root declares
// exactly the registered metrics with their units, so the two cannot
// drift apart.
func checkDeclared(root string) error {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	var decl struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &decl); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricDef) error {
		if len(got) != len(want) {
			return fmt.Errorf("BENCHMARK.json declares %d %s metrics, the benchmark reports %d", len(got), kind, len(want))
		}
		for i, m := range want {
			if got[i].Name != m.name || got[i].Unit != m.unit {
				return fmt.Errorf("BENCHMARK.json %s metric %d is %s (%s), the benchmark reports %s (%s)",
					kind, i, got[i].Name, got[i].Unit, m.name, m.unit)
			}
		}
		return nil
	}
	if err := same("end_to_end", decl.EndToEnd, endToEnd); err != nil {
		return err
	}
	return same("per_layer", decl.PerLayer, perLayer)
}

// quantile returns the q-quantile of sorted xs by linear interpolation
// between closest ranks (the same rule as Python's statistics.quantiles
// with method="inclusive").
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// sortedCopy returns xs sorted ascending without touching xs.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median of xs.
func median(xs []float64) float64 { return quantile(sortedCopy(xs), 0.5) }

// ratio returns a/b, or 0 when b is 0 (nothing happened).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// gitState reports the checkout's commit and whether tracked files
// differ from it, when the checkout is a git repository.
func gitState(root string) (commit string, dirty any) {
	if _, err := os.Stat(filepath.Join(root, ".git")); err != nil {
		return "none", nil
	}
	out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown", nil
	}
	commit = strings.TrimSpace(string(out))
	st, err := exec.Command("git", "-C", root, "status", "--porcelain", "--untracked-files=no").Output()
	if err != nil {
		return commit, nil
	}
	return commit, len(strings.TrimSpace(string(st))) > 0
}

// sourceDigest hashes the module's Go sources and go.mod files, so a
// result identifies the code it measured even outside git.
func sourceDigest(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, f)
		h.Write([]byte(rel))
		h.Write([]byte{0})
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// runtimeWindow measures allocation and GC CPU over a span of a run.
type runtimeWindow struct {
	alloc   uint64
	gc, cpu float64
}

func cpuSeconds() (gc, total float64) {
	s := []rtmetrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	rtmetrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64()
}

func startWindow() runtimeWindow {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	gc, cpu := cpuSeconds()
	return runtimeWindow{alloc: ms.TotalAlloc, gc: gc, cpu: cpu}
}

// stop returns the bytes allocated and the share of available CPU the
// garbage collector used since start.
func (w runtimeWindow) stop() (allocBytes float64, gcFrac float64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	gc, cpu := cpuSeconds()
	return float64(ms.TotalAlloc - w.alloc), ratio(gc-w.gc, cpu-w.cpu)
}

// setMemory records the memory the workload's state keeps live at the
// end of a run — the service with its published keys, the fleet's or the
// paper's trace store — as heap in use plus goroutine stacks after a
// collection. Callers keep that state reachable until it returns. Sys,
// the total obtained from the OS, and Sys less released heap are kept in
// the run record: both move in steps with GC timing (Sys by 4 MiB heap
// chunks, 11.5 or 15.7 MiB on identical serve-hot runs; the held share by
// the GC metadata sized to the run's peak heap, 4.7 or 8.5 MiB on
// identical repro-full runs).
func setMemory(b *bench) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	b.shape["mem_sys_end_mib"] = float64(ms.Sys) / (1 << 20)
	runtime.GC()
	debug.FreeOSMemory()
	runtime.ReadMemStats(&ms)
	b.shape["mem_held_mib"] = float64(ms.Sys-ms.HeapReleased) / (1 << 20)
	b.set("mem_live_mib", float64(ms.HeapInuse+ms.StackInuse)/(1<<20))
}

// hitRatio is hits ÷ lookups, 1 when there were no lookups (nothing
// missed).
func hitRatio(c expstore.Counter) float64 {
	if c.Hits+c.Misses == 0 {
		return 1
	}
	return float64(c.Hits) / float64(c.Hits+c.Misses)
}

// setStoreRatios records the store's hit ratios and misses over a delta.
func setStoreRatios(b *bench, d expstore.Stats) {
	b.set("expstore.series_hit_ratio", hitRatio(d.Series))
	b.set("expstore.view_hit_ratio", hitRatio(d.View))
	b.set("expstore.eval_hit_ratio", hitRatio(d.Eval))
	b.set("expstore.grid_hit_ratio", hitRatio(d.Grid))
	b.set("expstore.misses", float64(d.Series.Misses+d.View.Misses+d.Eval.Misses+d.Grid.Misses))
}

// digests holds output digests recorded in testdata/digests.json.
type digests struct {
	FleetSeed1Nodes2000 string `json:"fleet_seed1_nodes2000"`
	ReproFull           string `json:"repro_full"`
}

func loadDigests(root string) (digests, error) {
	var d digests
	data, err := os.ReadFile(filepath.Join(root, "perfbench", "testdata", "digests.json"))
	if err != nil {
		return d, err
	}
	return d, json.Unmarshal(data, &d)
}

func sha(data []byte) string {
	h := sha256.Sum256(data)
	return hex.EncodeToString(h[:])
}

// pool runs fn(worker, i) for i in [0, n) on a fixed pool of workers and
// returns the first error.
func pool(workers, n int, fn func(w, i int) error) error {
	ch := make(chan int)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range ch {
				if errs[w] == nil {
					errs[w] = fn(w, i)
				}
			}
		}()
	}
	for i := range n {
		ch <- i
	}
	close(ch)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("pool: %w", err)
		}
	}
	return nil
}
