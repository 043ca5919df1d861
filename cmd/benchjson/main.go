// Command benchjson times the library's key experiment drivers and hot
// paths at a reproducible reduced scale and writes the results as a JSON
// file (BENCH_<n>.json by default), so the performance trajectory of the
// evaluation engine can be tracked PR over PR without parsing `go test
// -bench` output.
//
// Usage:
//
//	benchjson            # writes BENCH_1.json in the working directory
//	benchjson -n 3       # writes BENCH_3.json
//	benchjson -out x.json -iters 5
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"time"

	"solarpred/internal/core"
	"solarpred/internal/dataset"
	"solarpred/internal/experiments"
	"solarpred/internal/expstore"
	"solarpred/internal/fleet"
	"solarpred/internal/guard"
	"solarpred/internal/optimize"
	"solarpred/internal/serve"
	"solarpred/internal/timeseries"
)

// Result is one timed entry of the report.
type Result struct {
	Name    string  `json:"name"`
	Iters   int     `json:"iters"`
	NsPerOp float64 `json:"ns_per_op"`
	// Metric carries one representative output value (a MAPE, a row
	// count, …) so a regression in *results* is caught alongside one in
	// *speed*.
	Metric     float64 `json:"metric"`
	MetricName string  `json:"metric_name"`
	// ColdNsPerOp is the wall time of the first iteration — the one that
	// performs this entry's cache misses. NsPerOp is the best iteration,
	// typically fully warm; the gap between the two is what the store
	// saves every driver after the first.
	ColdNsPerOp float64 `json:"cold_ns_per_op"`
	// Store holds the experiment-store hit/miss deltas this entry's
	// iterations caused, so the trajectory shows cache effectiveness and
	// not just ns/op. The first driver to need a tuple records the misses;
	// repeat iterations and later drivers record hits.
	Store *expstore.Stats `json:"store,omitempty"`
	// NsPerPred and PredsPerSec normalise NsPerOp by the number of
	// individual predictions the entry scores, for entries that model the
	// fleet-rate online path (OnlineK*). With the rolling ΦK window these
	// must stay flat as K grows.
	NsPerPred   float64 `json:"ns_per_pred,omitempty"`
	PredsPerSec float64 `json:"preds_per_sec,omitempty"`
	// NodesPerSec is the fleet-simulation throughput in virtual nodes per
	// second (FleetSim* entries only); their NsPerPred is ns per
	// node-slot.
	NodesPerSec float64 `json:"nodes_per_sec,omitempty"`
}

// Report is the whole emitted document.
type Report struct {
	GoVersion  string    `json:"go_version"`
	GOMAXPROCS int       `json:"gomaxprocs"`
	Timestamp  time.Time `json:"timestamp"`
	Results    []Result  `json:"results"`
}

func main() {
	n := flag.Int("n", 1, "PR / sequence number used in the default file name")
	out := flag.String("out", "", "output path (default BENCH_<n>.json)")
	iters := flag.Int("iters", 3, "iterations per driver (best time is reported)")
	flag.Parse()
	path := *out
	if path == "" {
		path = fmt.Sprintf("BENCH_%d.json", *n)
	}
	if *iters < 1 {
		fmt.Fprintf(os.Stderr, "benchjson: -iters %d must be at least 1\n", *iters)
		os.Exit(2)
	}
	if err := run(path, *iters); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

// timeBest runs fn iters times and returns the best and the first wall
// time together with fn's last metric value.
func timeBest(iters int, fn func() (float64, error)) (best, first time.Duration, metric float64, err error) {
	best = time.Duration(1<<63 - 1)
	for i := 0; i < iters; i++ {
		start := time.Now()
		m, err := fn()
		if err != nil {
			return 0, 0, 0, err
		}
		d := time.Since(start)
		if i == 0 {
			first = d
		}
		if d < best {
			best = d
		}
		metric = m
	}
	return best, first, metric, nil
}

func run(path string, iters int) error {
	cfg := experiments.QuickConfig()
	// All drivers share one experiment store, like cmd/repro: the first
	// iteration of the first driver computes each tuple, everything after
	// is served from cache. The per-entry store deltas record exactly that.
	cfg.Store = experiments.NewStore(cfg)
	rep := Report{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Timestamp:  time.Now().UTC(),
	}

	addN := func(name, metricName string, preds int, fn func() (float64, error)) error {
		// Collect previous entries' garbage outside the timed region, like
		// testing.B, so one entry's allocations can't show up as another
		// entry's cold time.
		runtime.GC()
		before := cfg.Store.Stats()
		best, first, metric, err := timeBest(iters, fn)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		delta := cfg.Store.Stats().Sub(before)
		r := Result{
			Name: name, Iters: iters, NsPerOp: float64(best.Nanoseconds()),
			Metric: metric, MetricName: metricName,
			ColdNsPerOp: float64(first.Nanoseconds()), Store: &delta,
		}
		if preds > 0 {
			r.NsPerPred = r.NsPerOp / float64(preds)
			r.PredsPerSec = 1e9 / r.NsPerPred
		}
		rep.Results = append(rep.Results, r)
		fmt.Printf("%-24s %12.3f ms (cold %.3f)   %s=%.4f   grid %d/%d\n",
			name, best.Seconds()*1e3, first.Seconds()*1e3, metricName, metric,
			delta.Grid.Misses, delta.Grid.Hits+delta.Grid.Misses)
		return nil
	}
	add := func(name, metricName string, fn func() (float64, error)) error {
		return addN(name, metricName, 0, fn)
	}

	if err := add("TableII", "MAPE", func() (float64, error) {
		rows, err := experiments.TableII(cfg, 48)
		if err != nil {
			return 0, err
		}
		return rows[0].MeanError, nil
	}); err != nil {
		return err
	}
	if err := add("TableIII", "MAPE@N24", func() (float64, error) {
		rows, err := experiments.TableIII(cfg)
		if err != nil {
			return 0, err
		}
		for _, r := range rows {
			if r.Site == cfg.Sites[0] && r.N == 24 {
				return r.Best.Report.MAPE, nil
			}
		}
		return 0, fmt.Errorf("missing N=24 row")
	}); err != nil {
		return err
	}
	if err := add("TableV", "dynamicMAPE", func() (float64, error) {
		rows, err := experiments.TableV(cfg)
		if err != nil {
			return 0, err
		}
		return rows[0].Both, nil
	}); err != nil {
		return err
	}
	if err := add("Fig7", "MAPE@Dmin", func() (float64, error) {
		series, err := experiments.Fig7(cfg, 48)
		if err != nil {
			return 0, err
		}
		return series[0].MAPEs[0], nil
	}); err != nil {
		return err
	}

	// Hot-path micro drivers on a fixed trace.
	trace, err := cfg.Trace(cfg.Sites[0])
	if err != nil {
		return err
	}
	view, err := trace.Slot(48)
	if err != nil {
		return err
	}
	eval, err := optimize.NewEval(view, optimize.WithWarmupDays(cfg.WarmupDays))
	if err != nil {
		return err
	}
	space := cfg.Space
	if err := add("GridSearch", "bestMAPE", func() (float64, error) {
		res, err := eval.GridSearch(space, optimize.RefSlotMean)
		if err != nil {
			return 0, err
		}
		return res.Best.Report.MAPE, nil
	}); err != nil {
		return err
	}
	if err := add("SweepAlpha", "MAPE@a0", func() (float64, error) {
		reps, err := eval.SweepAlpha(10, 3, space.Alphas, optimize.RefSlotMean)
		if err != nil {
			return 0, err
		}
		return reps[0].MAPE, nil
	}); err != nil {
		return err
	}
	if err := add("EvaluateOnline", "MAPE", func() (float64, error) {
		r, err := eval.EvaluateOnline(core.Params{Alpha: 0.7, D: 10, K: 2}, optimize.RefSlotMean)
		if err != nil {
			return 0, err
		}
		return r.MAPE, nil
	}); err != nil {
		return err
	}

	// Robustness tax: the same observe-and-predict replay through the raw
	// predictor and through the guard's gating layer. The gap between the
	// two entries' ns_per_pred is the per-sample price of the detectors;
	// on this clean trace the guard's metric must stay at quality 1.
	guardPreds := view.DaysCount * view.N
	if err := addN("CorePredict", "peakWatt", guardPreds, func() (float64, error) {
		p, err := core.New(view.N, experiments.GuidelineParams(view.N))
		if err != nil {
			return 0, err
		}
		peak := 0.0
		for d := 0; d < view.DaysCount; d++ {
			for j := 0; j < view.N; j++ {
				if err := p.Observe(j, view.Start[d*view.N+j]); err != nil {
					return 0, err
				}
				if p.Ready() {
					w, err := p.Predict()
					if err != nil {
						return 0, err
					}
					if w > peak {
						peak = w
					}
				}
			}
		}
		return peak, nil
	}); err != nil {
		return err
	}
	if err := addN("GuardedPredict", "quality", guardPreds, func() (float64, error) {
		g, err := guard.New(view.N, experiments.GuidelineParams(view.N), guard.DefaultConfig())
		if err != nil {
			return 0, err
		}
		for d := 0; d < view.DaysCount; d++ {
			for j := 0; j < view.N; j++ {
				if err := g.Observe(j, view.Start[d*view.N+j]); err != nil {
					return 0, err
				}
				if g.Predictor().Ready() {
					if _, err := g.Forecast(1); err != nil {
						return 0, err
					}
				}
			}
		}
		return g.Quality(), nil
	}); err != nil {
		return err
	}

	// Fleet-rate online path at a finer grid (15-minute slots) across a
	// spread of window sizes: with the rolling ΦK maintenance the
	// per-prediction time must stay flat in K. Each entry scores every
	// post-warmup slot of the trace once per iteration.
	view96, err := trace.Slot(96)
	if err != nil {
		return err
	}
	eval96, err := optimize.NewEval(view96, optimize.WithWarmupDays(cfg.WarmupDays))
	if err != nil {
		return err
	}
	onlinePreds := view96.TotalSlots() - 1 - cfg.WarmupDays*view96.N
	for _, kk := range []int{4, 16, 64} {
		kk := kk
		name := fmt.Sprintf("OnlineK%d", kk)
		if err := addN(name, "MAPE", onlinePreds, func() (float64, error) {
			r, err := eval96.EvaluateOnline(core.Params{Alpha: 0.7, D: 10, K: kk}, optimize.RefSlotMean)
			if err != nil {
				return 0, err
			}
			return r.MAPE, nil
		}); err != nil {
			return err
		}
	}

	// Fleet-scale closed loop: the sharded fleet simulator at a reduced
	// scale, sweeping the fleet size. NsPerPred is ns per node-slot (the
	// per-slot cost of sampling, predicting and stepping one virtual
	// node); NodesPerSec is end-to-end fleet throughput. The site set and
	// trace store are shared across entries, so the entries price the
	// simulation itself, not trace generation.
	fleetBase := fleet.DefaultConfig(500)
	fleetBase.Sites = 16
	fleetBase.Days = 8
	fleetSites, err := fleet.BuildSites(fleetBase)
	if err != nil {
		return err
	}
	fleetBase.Store = fleet.NewStore(fleetSites, fleetBase.N)
	for _, nodes := range []int{500, 2000} {
		fleetCfg := fleetBase
		fleetCfg.Nodes = nodes
		nodeSlots := nodes * fleetCfg.Days * fleetCfg.N
		var nodesPerSec float64
		if err := addN(fmt.Sprintf("FleetSim%d", nodes), "p50MAPE", nodeSlots, func() (float64, error) {
			res, err := fleet.Run(fleetCfg)
			if err != nil {
				return 0, err
			}
			nodesPerSec = res.NodesPerSec
			return res.Summary.MAPE.P50, nil
		}); err != nil {
			return err
		}
		rep.Results[len(rep.Results)-1].NodesPerSec = nodesPerSec
	}

	// Served-request latency: the same store behind cmd/solarpredd's HTTP
	// API, measured as full round-trips (routing, single flight, JSON encoding)
	// against an in-process listener. The grid tuple is already warm from
	// the drivers above, so these entries price the serving layer itself.
	svc, err := serve.New(serve.Config{Exp: cfg})
	if err != nil {
		return err
	}
	defer svc.Close()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	getJSON := func(url string, out any) error {
		resp, err := http.Get(url)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("GET %s: %s: %s", url, resp.Status, body)
		}
		return json.Unmarshal(body, out)
	}
	if err := add("ServeForecast", "peakWatt", func() (float64, error) {
		var fr serve.ForecastResult
		// A full day ahead: the trace ends at midnight, so the peak of the
		// recursion (not the zero night slots) is the regression-sensitive
		// value.
		url := fmt.Sprintf("%s/v1/forecast?site=%s&n=48&horizon=48", ts.URL, cfg.Sites[0])
		if err := getJSON(url, &fr); err != nil {
			return 0, err
		}
		peak := 0.0
		for _, w := range fr.Watts {
			if w > peak {
				peak = w
			}
		}
		return peak, nil
	}); err != nil {
		return err
	}
	if err := add("ServeGrid", "bestMAPE", func() (float64, error) {
		var gr serve.GridResult
		url := fmt.Sprintf("%s/v1/grid?site=%s&n=48", ts.URL, cfg.Sites[0])
		if err := getJSON(url, &gr); err != nil {
			return 0, err
		}
		return gr.Best.MAPE, nil
	}); err != nil {
		return err
	}

	// Degraded round-trip: a second service whose first site's trace goes
	// flat for its last two days, pushing the guard below its quality
	// floor. The entry prices the climatological-fallback path end to end
	// (replay, gating, stale/degraded JSON encoding); its metric is the
	// served quality score, which must sit below guard.DefaultConfig's
	// MinQuality for the fallback to have actually engaged.
	degCfg := experiments.QuickConfig()
	degSite := degCfg.Sites[0]
	degCfg.Store = expstore.New(func(site string, days int) (*timeseries.Series, error) {
		s, err := dataset.SiteByName(site)
		if err != nil {
			return nil, err
		}
		series, err := dataset.GenerateDays(s, days)
		if err != nil {
			return nil, err
		}
		if site != degSite {
			return series, nil
		}
		samples := append([]float64(nil), series.Samples...)
		perDay := series.SamplesPerDay()
		for i := len(samples) - 2*perDay; i < len(samples); i++ {
			samples[i] = 7.5
		}
		return timeseries.New(series.ResolutionMinutes, samples)
	}, degCfg.Ns)
	degSvc, err := serve.New(serve.Config{Exp: degCfg})
	if err != nil {
		return err
	}
	defer degSvc.Close()
	degTS := httptest.NewServer(degSvc.Handler())
	defer degTS.Close()
	if err := add("DegradedForecast", "quality", func() (float64, error) {
		var fr serve.ForecastResult
		url := fmt.Sprintf("%s/v1/forecast?site=%s&n=48&horizon=2", degTS.URL, degSite)
		if err := getJSON(url, &fr); err != nil {
			return 0, err
		}
		if !fr.Degraded {
			return 0, fmt.Errorf("degraded trace served a non-degraded forecast (quality %.3f)", fr.Quality)
		}
		return fr.Quality, nil
	}); err != nil {
		return err
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Println("wrote", path)
	return nil
}
