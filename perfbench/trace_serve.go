package main

import (
	"context"
	"math/rand/v2"
	"runtime"
	"sync"
	"time"

	"solarpred/internal/experiments"
	"solarpred/internal/guard"
	"solarpred/internal/optimize"
	"solarpred/internal/serve"
)

// traceServe is the traced run of a serve workload, after the same
// set-up as the untraced one:
//
//  1. accounting: one connection back to back without spans, then with
//     them; the mean round trips give the tracing overhead;
//  2. the open-loop phase at the workload's rate with spans, which
//     yields the HTTP and handler split, the batcher, store and runtime
//     deltas and the generator's own lateness;
//  3. the same request stream through Service methods directly (no HTTP,
//     no JSON), which splits the handler into service and encoding.
func traceServe(b *bench, st *serveStack, gen generator, rate float64, burst int,
	onResp func(*latencies) func(*response), check func(*latencies), direct func(context.Context) (reqClass, error)) error {
	addr, tr := st.srv.addr, b.tr

	// 1. Accounting.
	oneConn := func(t *tracer) float64 {
		var lat latencies
		p := &phase{addr: addr, senders: 1, limit: burst, gen: gen, tr: t, onResp: onResp(&lat)}
		runtime.GC()
		p.run()
		check(&lat)
		return mean(lat.rt)
	}
	untraced := oneConn(nil)
	mark := tr.mark()
	traced := oneConn(tr)
	acc := tr.totals(mark)
	handlerA := handlerTotals(acc)
	httpA := acc["http.request"]

	// 2. Open loop with spans.
	before := st.svc.Stats()
	runtime.GC()
	win := startWindow()
	mark = tr.mark()
	var open latencies
	p := &phase{addr: addr, senders: runtime.NumCPU(), rate: rate,
		until: b.deadline(0.6), rng: rand.New(rand.NewPCG(b.seed, 0x6f70656e)), gen: gen, tr: tr, onResp: onResp(&open)}
	var backlogMax int64
	stopPoll := make(chan struct{})
	var pollWG sync.WaitGroup
	pollWG.Add(1)
	go func() {
		defer pollWG.Done()
		t := time.NewTicker(2 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-stopPoll:
				return
			case <-t.C:
				backlogMax = max(backlogMax, st.svc.Stats().Backlog)
			}
		}
	}()
	drawnBefore := drawnOf(gen)
	sent, _ := p.run()
	close(stopPoll)
	pollWG.Wait()
	allocBytes, gcFrac := win.stop()
	after := st.svc.Stats()
	check(&open)
	if len(open.lat) == 0 {
		return errNoSamples
	}
	drawn := drawnOf(gen)
	for c := range drawn {
		drawn[c] -= drawnBefore[c]
	}
	lt := tr.totals(mark)
	handler := handlerTotals(lt)
	b.set("serve.handler_us", handler.per(time.Microsecond))
	b.set("serve.http_self_us", lt["http.request"].per(time.Microsecond))
	// Server time spent on compute beyond a warm forecast: cold replays
	// and grid searches, net of what the same number of warm requests
	// would have cost.
	hot, cold, grid := lt[handlerSpan[classHot]], lt[handlerSpan[classCold]], lt[handlerSpan[classGrid]]
	extra := float64(cold.total+grid.total) - float64(cold.calls+grid.calls)*ratio(float64(hot.total), float64(hot.calls))
	b.set("serve.compute_frac", ratio(extra, float64(handler.total)))
	b.set("serve.batcher_computations", float64(after.Batcher.Computations-before.Batcher.Computations))
	b.set("serve.batcher_coalesced", float64(after.Batcher.Coalesced-before.Batcher.Coalesced))
	b.set("serve.batcher_abandoned", float64(after.Batcher.Abandoned-before.Batcher.Abandoned))
	b.set("serve.backlog_max", float64(backlogMax))
	b.set("serve.shed", float64(shedOf(after)-shedOf(before)))
	b.set("runtime.alloc_bytes_per_req", allocBytes/float64(sent))
	b.set("runtime.alloc_bytes_per_op", allocBytes/float64(sent))
	b.set("runtime.gc_cpu_frac", gcFrac)
	setStoreRatios(b, after.Store.Sub(before.Store))
	late := sortedCopy(open.late)
	b.set("loadgen.late_p50_ms", quantile(late, 0.5))
	b.set("loadgen.late_p99_ms", quantile(late, 0.99))
	b.set("loadgen.cold_frac", ratio(float64(drawn[classCold]), float64(sent)))
	b.set("loadgen.grid_frac", ratio(float64(drawn[classGrid]), float64(sent)))
	b.shape["traced_open_loop_requests"] = sent

	// 3. The same stream without HTTP.
	runtime.GC()
	mark = tr.mark()
	until := b.deadline(0.1)
	for time.Now().Before(until) {
		sp := tr.open("serve.service", 0, 0)
		_, err := direct(context.Background())
		sp.close()
		if err != nil {
			b.fail(1)
			b.note("direct service call: %v", err)
		}
		b.attempted++
	}
	service := tr.totals(mark)["serve.service"].per(time.Microsecond)
	b.set("serve.service_us", service)
	b.set("serve.encode_us", handler.per(time.Microsecond)-service)

	// Accounting: HTTP self time and the handler span (service plus
	// encoding) tile the traced round trip; what is left to check is how
	// far the traced round trip sits from the untraced one.
	accounted := httpA.per(time.Millisecond) + handlerA.per(time.Millisecond)
	b.set("trace.overhead_frac", traced/untraced-1)
	b.set("trace.unaccounted_frac", (untraced-accounted)/untraced)
	b.note("accounting: untraced round trip %.4f ms, traced %.4f ms (overhead %+.1f%%); layers: http %.4f + handler %.4f ms",
		untraced, traced, 100*(traced/untraced-1), httpA.per(time.Millisecond), handlerA.per(time.Millisecond))
	return nil
}

// handlerTotals sums the handler spans of every request class.
func handlerTotals(t map[string]layerTotals) layerTotals {
	var out layerTotals
	for _, name := range handlerSpan {
		l := t[name]
		out.total += l.total
		out.self += l.self
		out.calls += l.calls
	}
	return out
}

// drawnOf returns a generator's per-class draw counts (zero for the hot
// generator, which only draws warm tuples: every draw is hot).
func drawnOf(g generator) [3]int {
	if c, ok := g.(*churnGen); ok {
		return c.drawn
	}
	return [3]int{}
}

func shedOf(s serve.StatsResult) uint64 {
	var n uint64
	for _, e := range s.Endpoints {
		n += e.Shed
	}
	return n
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return ratio(s, float64(len(xs)))
}

// traceGuard records guard replay (guard.New + Observe over a store view)
// and the replayed guard's Forecast on the given tuples.
func traceGuard(b *bench, cfg experiments.Config, tuples []forecastSpec) error {
	ref := experiments.NewStore(cfg)
	mark := b.tr.mark()
	for _, t := range tuples {
		view, err := ref.View(t.site, cfg.Days, t.n)
		if err != nil {
			return err
		}
		var g *guard.Guard
		if err := b.tr.timed("guard.replay", 0, int64(view.TotalSlots()), func() (err error) {
			g, _, err = directForecast(view, t)
			return err
		}); err != nil {
			return err
		}
		const reps = 2000
		if err := b.tr.timed("guard.forecast", 0, reps, func() error {
			for range reps {
				if _, err := g.Forecast(t.horizon); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return err
		}
	}
	lt := b.tr.totals(mark)
	b.set("guard.observe_ns", lt["guard.replay"].per(time.Nanosecond))
	b.set("guard.forecast_ns", lt["guard.forecast"].per(time.Nanosecond))
	return nil
}

// traceStore records the store's cold view and evaluator builds and cold
// grid searches with per-request α lists, as serve-churn's computations
// run them.
func traceStore(b *bench, cfg experiments.Config, rng *rand.Rand) error {
	ref := experiments.NewStore(cfg)
	mark := b.tr.mark()
	cells := 0
	for _, site := range cfg.Sites {
		if _, err := ref.Series(site, cfg.Days); err != nil {
			return err
		}
		for _, n := range cfg.Ns {
			if err := b.tr.timed("expstore.view", 0, 1, func() error {
				_, err := ref.View(site, cfg.Days, n)
				return err
			}); err != nil {
				return err
			}
			var e *optimize.Eval
			if err := b.tr.timed("expstore.eval", 0, 1, func() (err error) {
				e, err = ref.Eval(site, cfg.Days, n, cfg.EvalOptions())
				return err
			}); err != nil {
				return err
			}
			for range 4 {
				space := cfg.Space
				space.Alphas = nil
				for range churnAlphas {
					space.Alphas = append(space.Alphas, rng.Float64())
				}
				cells += space.Size()
				if err := b.tr.timed("optimize.grid", 0, 1, func() error {
					_, err := e.GridSearch(space, optimize.RefSlotMean)
					return err
				}); err != nil {
					return err
				}
			}
		}
	}
	lt := b.tr.totals(mark)
	b.set("expstore.view_ms", lt["expstore.view"].per(time.Millisecond))
	b.set("expstore.eval_ms", lt["expstore.eval"].per(time.Millisecond))
	b.set("optimize.grid_ms", lt["optimize.grid"].per(time.Millisecond))
	b.set("optimize.grid_cells_per_s", float64(cells)/lt["optimize.grid"].self.Seconds())
	return nil
}
