package main

import (
	"bytes"
	"encoding/json"
	"runtime"
	"slices"
	"sync"
	"time"

	"solarpred/internal/cloud"
	"solarpred/internal/core"
	"solarpred/internal/dataset"
	"solarpred/internal/expstore"
	"solarpred/internal/fleet"
	"solarpred/internal/harvest"
	"solarpred/internal/metrics"
	"solarpred/internal/solar"
	"solarpred/internal/timeseries"
)

// Fleet workload shape: fleet.DefaultConfig (64 sites, 30 days, 48
// slots per day) at 10k nodes, one worker per CPU, a fresh trace store
// per run.
const (
	fleetNodes     = 10000
	fleetSetupReps = 15
	// The reference fleet whose summary digest was recorded when the
	// benchmark was written: seed 1, 2000 nodes.
	fleetRefNodes = 2000
)

func fleetConfig(seed uint64) fleet.Config {
	cfg := fleet.DefaultConfig(fleetNodes)
	cfg.Seed = int64(seed & (1<<63 - 1))
	cfg.Workers = runtime.NumCPU()
	return cfg
}

func runFleet(b *bench) error {
	cfg := fleetConfig(b.seed)
	var setups []float64
	for range fleetSetupReps {
		start := time.Now()
		sites, err := fleet.BuildSites(cfg)
		if err != nil {
			return err
		}
		fleet.NewStore(sites, cfg.N)
		setups = append(setups, time.Since(start).Seconds())
	}
	b.shape["nodes"] = cfg.Nodes
	b.shape["sites"] = cfg.Sites
	b.shape["nodes_per_site"] = float64(cfg.Nodes) / float64(cfg.Sites)
	b.shape["days"] = cfg.Days
	b.shape["n"] = cfg.N
	b.shape["workers"] = cfg.Workers

	want, err := loadDigests(b.root)
	if err != nil {
		return err
	}
	ref := fleet.DefaultConfig(fleetRefNodes)
	ref.Workers = cfg.Workers
	res, err := fleet.Run(ref)
	if err != nil {
		return err
	}
	got, err := json.Marshal(res.Summary)
	if err != nil {
		return err
	}
	b.verify("fleet.reference_digest", sha(got) == want.FleetSeed1Nodes2000,
		"seed 1, %d nodes: summary sha256 %s, recorded %s", fleetRefNodes, sha(got), want.FleetSeed1Nodes2000)

	if b.trace {
		return traceFleet(b, cfg)
	}
	b.set("setup_s", median(setups))
	var walls []float64
	var first []byte
	deadline := b.deadline(1)
	for len(walls) < 3 || time.Now().Before(deadline) {
		// A fresh trace store per run, built as fleet.Run would build it,
		// so the last run's store can be measured once the window ends.
		sites, err := fleet.BuildSites(cfg)
		if err != nil {
			return err
		}
		cfg.Store = fleet.NewStore(sites, cfg.N)
		runtime.GC()
		start := time.Now()
		res, err := fleet.Run(cfg)
		wall := time.Since(start)
		if err != nil {
			return err
		}
		walls = append(walls, wall.Seconds())
		summary, err := json.Marshal(res.Summary)
		if err != nil {
			return err
		}
		if first == nil {
			first = summary
		}
		b.verify("fleet.summary_repeatable", bytes.Equal(summary, first), "run %d summary differs from run 1", len(walls))
	}
	slots := float64(cfg.Nodes) * float64(cfg.Days) * float64(cfg.N)
	sorted := sortedCopy(walls)
	med := quantile(sorted, 0.5)
	b.set("latency_p50_ms", med*1e3)
	b.shape["slowest_run_ms"] = sorted[len(sorted)-1] * 1e3
	b.set("saturation_rps", float64(cfg.Nodes)/med)
	setMemory(b)
	runtime.KeepAlive(cfg.Store)
	b.shape["runs"] = len(walls)
	b.shape["summary_sha256"] = sha(first)
	b.note("fleet: %d runs, median %.3f s, %.3g node-slots/s", len(walls), med, slots/med)
	return nil
}

// spanTrace is a trace source for expstore.New that records a
// dataset.generate span around each dataset.GenerateDays call, as a
// child of the expstore.view span that asked for the site. It resolves
// names the way fleet.NewStore and experiments.NewStore do.
type spanTrace struct {
	tr     *tracer
	byName map[string]dataset.Site
	mu     sync.Mutex
	parent map[string]int64 // site → the view span waiting on it
}

func newSpanTrace(tr *tracer, sites []dataset.Site) *spanTrace {
	t := &spanTrace{tr: tr, byName: map[string]dataset.Site{}, parent: map[string]int64{}}
	for _, s := range sites {
		t.byName[s.Name] = s
	}
	return t
}

// view records an expstore.view span around store.View for one site.
func (t *spanTrace) view(store *expstore.Store, site string, days, n int) (*timeseries.SlotView, error) {
	sp := t.tr.open("expstore.view", 0, 0)
	t.mu.Lock()
	t.parent[site] = sp.s.ID
	t.mu.Unlock()
	v, err := store.View(site, days, n)
	sp.close()
	return v, err
}

func (t *spanTrace) generate(site string, days int) (*timeseries.Series, error) {
	s, ok := t.byName[site]
	if !ok {
		var err error
		if s, err = dataset.SiteByName(site); err != nil {
			return nil, err
		}
	}
	t.mu.Lock()
	parent := t.parent[site]
	t.mu.Unlock()
	sp := t.tr.open("dataset.generate", parent, 0)
	series, err := dataset.GenerateDays(s, days)
	sp.closeAt(time.Now(), int64(days))
	return series, err
}

// traceFleet reassembles fleet.Run from its public pieces — BuildSites,
// a trace store, RunNode per node and ShardAgg per shard — with spans
// around each call, on the same worker count and shard layout, and checks
// the reassembled summary against fleet.Run's byte for byte.
func traceFleet(b *bench, cfg fleet.Config) error {
	tr := b.tr
	runtime.GC()
	win := startWindow()
	start := time.Now()
	res, err := fleet.Run(cfg)
	untraced := time.Since(start)
	if err != nil {
		return err
	}
	allocBytes, gcFrac := win.stop()
	b.attempted++
	want, err := json.Marshal(res.Summary)
	if err != nil {
		return err
	}
	b.set("fleet.node_slots_per_s", float64(res.NodeSlots)/untraced.Seconds())
	b.set("runtime.gc_cpu_frac", gcFrac)
	b.set("runtime.alloc_bytes_per_op", allocBytes/float64(cfg.Nodes))

	runtime.GC()
	mark := tr.mark()
	run := tr.open("fleet.reassembly", 0, 0)
	var sites []dataset.Site
	if err := tr.timed("fleet.sites", run.s.ID, 1, func() (err error) {
		sites, err = fleet.BuildSites(cfg)
		return err
	}); err != nil {
		return err
	}
	st := newSpanTrace(tr, sites)
	store := expstore.New(st.generate, []int{cfg.N})

	// Phase 0: site views (trace generation and slotting) on one worker
	// per CPU, as in fleet.Run.
	workers := cfg.Workers
	views := make([]*timeseries.SlotView, len(sites))
	thresholds := make([]float64, len(sites))
	p0 := tr.open("fleet.phase.views", run.s.ID, 0)
	if err := pool(workers, len(sites), func(_, i int) error {
		v, err := st.view(store, sites[i].Name, cfg.Days, cfg.N)
		if err != nil {
			return err
		}
		views[i] = v
		thresholds[i] = metrics.PeakThreshold(v.PeakMean(), metrics.DefaultROIFraction)
		return nil
	}); err != nil {
		return err
	}
	p0.close()

	// Phase 1: shards, with spans around RunNode and AddNode.
	shards := 4 * workers
	aggs := make([]*fleet.ShardAgg, shards)
	p1 := tr.open("fleet.phase.shards", run.s.ID, 0)
	if err := pool(workers, shards, func(_, s int) error {
		lo, hi := s*cfg.Nodes/shards, (s+1)*cfg.Nodes/shards
		agg := fleet.NewShardAgg()
		for i := lo; i < hi; i++ {
			site := i % cfg.Sites
			node := tr.open("fleet.node", 0, int64(i)+1)
			nr, err := fleet.RunNode(&cfg, i, views[site], thresholds[site])
			t1 := time.Now()
			node.closeAt(t1, 1)
			if err != nil {
				return err
			}
			add := tr.openAt("fleet.agg", 0, int64(i)+1, t1)
			agg.AddNode(&nr)
			add.close()
		}
		aggs[s] = agg
		return nil
	}); err != nil {
		return err
	}
	p1.close()
	merged := fleet.NewShardAgg()
	if err := tr.timed("fleet.merge", run.s.ID, int64(len(aggs)), func() error {
		for _, a := range aggs {
			merged.Merge(a)
		}
		return nil
	}); err != nil {
		return err
	}
	run.close()
	got, err := json.Marshal(merged.Summary())
	if err != nil {
		return err
	}
	b.verify("fleet.reassembly", bytes.Equal(got, want), "RunNode/ShardAgg summary %s, fleet.Run %s", got, want)

	lt := tr.totals(mark)
	node, agg, merge := lt["fleet.node"], lt["fleet.agg"], lt["fleet.merge"]
	slots := float64(cfg.Nodes) * float64(cfg.Days) * float64(cfg.N)
	nodeNs := float64(node.self.Nanoseconds()) / slots
	b.set("fleet.node_ns_per_slot", nodeNs)
	b.set("fleet.agg_ns_per_node", float64((agg.self+merge.self).Nanoseconds())/float64(cfg.Nodes))
	phase1 := lt["fleet.phase.shards"].total
	b.set("fleet.pool_util", (node.total+agg.total).Seconds()/(float64(workers)*phase1.Seconds()))
	gen := lt["dataset.generate"]
	b.set("dataset.trace_ms_per_site_day", gen.per(time.Millisecond))
	b.set("expstore.view_ms", lt["expstore.view"].per(time.Millisecond))
	setStoreRatios(b, store.Stats())

	// Self times of the parallel phases count once per worker.
	traced := lt["fleet.reassembly"].total
	w := time.Duration(workers)
	accounted := lt["fleet.sites"].total + (lt["expstore.view"].total)/w + (node.total+agg.total)/w + merge.total
	b.set("trace.overhead_frac", traced.Seconds()/untraced.Seconds()-1)
	b.set("trace.unaccounted_frac", (untraced-accounted).Seconds()/untraced.Seconds())
	b.note("accounting: fleet.Run %.3f s untraced, reassembly %.3f s traced (overhead %+.1f%%); layers: sites %.3f + (views %.3f + nodes %.3f + agg %.3f)/%d workers + merge %.4f = %.3f s",
		untraced.Seconds(), traced.Seconds(), 100*(traced.Seconds()/untraced.Seconds()-1),
		lt["fleet.sites"].total.Seconds(), lt["expstore.view"].total.Seconds(), node.total.Seconds(), agg.total.Seconds(),
		workers, merge.total.Seconds(), accounted.Seconds())

	if err := traceNodeParts(b, cfg, views, thresholds, nodeNs); err != nil {
		return err
	}
	return traceTraceGen(b, sites[:8], cfg.Days)
}

// traceNodeParts records the predictor, harvest and metrics layers a node
// step is made of, each in its own loop over the first sites' views at
// the fleet's base parameters and hardware.
func traceNodeParts(b *bench, cfg fleet.Config, views []*timeseries.SlotView, thresholds []float64, nodeNs float64) error {
	tr := b.tr
	mark := tr.mark()
	forecasts := make([]float64, 0, cfg.Days*cfg.N)
	for s := 0; s < 16 && s < len(views); s++ {
		v := views[s]
		pred, err := core.New(cfg.N, cfg.Params)
		if err != nil {
			return err
		}
		forecasts = forecasts[:0]
		if err := tr.timed("core.step", 0, int64(v.TotalSlots()), func() error {
			for t := 0; t < v.TotalSlots(); t++ {
				if err := pred.Observe(t%v.N, v.Start[t]); err != nil {
					return err
				}
				f, err := pred.Predict()
				if err != nil {
					return err
				}
				forecasts = append(forecasts, f)
			}
			return nil
		}); err != nil {
			return err
		}
		sim, err := harvest.NewSim(cfg.Harvest, cfg.N)
		if err != nil {
			return err
		}
		_ = tr.timed("harvest.step", 0, int64(len(forecasts)), func() error {
			for t, f := range forecasts {
				sim.Step(f, v.Mean[t])
			}
			return nil
		})
		acc, err := metrics.MakeAccumulator(thresholds[s])
		if err != nil {
			return err
		}
		warm := cfg.WarmupDays * cfg.N
		_ = tr.timed("metrics.add", 0, int64(len(forecasts)-warm), func() error {
			for t := warm; t < len(forecasts); t++ {
				acc.Add(forecasts[t], v.Mean[t])
			}
			return nil
		})
	}
	lt := tr.totals(mark)
	coreNs := lt["core.step"].per(time.Nanosecond)
	simNs := lt["harvest.step"].per(time.Nanosecond)
	addNs := lt["metrics.add"].per(time.Nanosecond)
	b.set("core.step_ns", coreNs)
	b.set("harvest.step_ns", simNs)
	b.set("metrics.add_ns", addNs)
	scored := float64(cfg.Days-cfg.WarmupDays) / float64(cfg.Days)
	b.set("fleet.parts_frac", (coreNs+simNs+addNs*scored)/nodeNs)
	return nil
}

// traceTraceGen splits trace generation into its solar and cloud layers
// by regenerating sites day by day from their public pieces, and checks
// the pieces rebuild dataset.GenerateDays's trace exactly.
func traceTraceGen(b *bench, sites []dataset.Site, days int) error {
	tr := b.tr
	mark := tr.mark()
	for _, site := range sites {
		want, err := dataset.GenerateDays(site, days)
		if err != nil {
			return err
		}
		perDay := timeseries.MinutesPerDay / site.ResolutionMinutes
		clear := make([]float64, perDay)
		trans := make([]float64, perDay)
		got := make([]float64, 0, perDay*days)
		proc, err := cloud.NewProcess(site.Climate, site.Seed)
		if err != nil {
			return err
		}
		for day := 0; day < days; day++ {
			doy := day%solar.DaysPerYear + 1
			var rise, set float64
			if err := tr.timed("solar.clearsky", 0, 1, func() error {
				rise, set = solar.SunriseSunset(site.Geo, doy)
				return solar.ClearSkyDay(site.Geo, doy, site.ResolutionMinutes, clear)
			}); err != nil {
				return err
			}
			if err := tr.timed("cloud.day", 0, 1, func() error {
				_, err := proc.GenerateDay(doy, site.ResolutionMinutes, rise, set, trans)
				return err
			}); err != nil {
				return err
			}
			for i := range perDay {
				got = append(got, clear[i]*trans[i])
			}
		}
		b.verify("dataset.decomposition", slices.Equal(got, want.Samples),
			"site %s: solar × cloud pieces do not rebuild dataset.GenerateDays", site.Name)
	}
	lt := tr.totals(mark)
	b.set("solar.clearsky_us_per_day", lt["solar.clearsky"].per(time.Microsecond))
	b.set("cloud.day_us", lt["cloud.day"].per(time.Microsecond))
	return nil
}
