package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"net/http"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"solarpred/internal/core"
	"solarpred/internal/experiments"
	"solarpred/internal/expstore"
	"solarpred/internal/guard"
	"solarpred/internal/optimize"
	"solarpred/internal/serve"
	"solarpred/internal/timeseries"
)

// Load shape of the serve workloads. The open-loop rates sit well below
// the closed-loop saturation measured on a 2-vCPU Xeon VM through one
// process that both generates and serves (serve-hot 10–15k rps,
// serve-churn about 6k rps), so the latency quantiles price service time,
// not queueing at the knee. A closed-loop burst takes about 0.3 s at
// those rates.
const (
	hotRate        = 1500.0           // open-loop requests per second, serve-hot
	churnRate      = 600.0            // open-loop requests per second, serve-churn
	hotBurst       = 3000             // closed-loop requests per round, serve-hot
	churnBurst     = 1500             // closed-loop requests per round, serve-churn
	churnCold      = 0.3              // share of forecasts from first-time nodes
	churnGrid      = 0.04             // share of grid and tune requests
	churnInitial   = 64               // virtual nodes warmed during set-up
	churnAlphas    = 3                // α values per grid/tune request
	openShare      = 0.7              // share of the window in the open-loop phase
	setupReps      = 9                // set-ups per run; setup_s is their median
	checkEvery     = 16               // serve-churn checks every 16th request
	requestTimeout = 30 * time.Second // cmd/solarpredd's default
)

// serveStack is one service behind a loopback listener.
type serveStack struct {
	cfg experiments.Config
	svc *serve.Service
	srv *server
}

// serveProcs raises GOMAXPROCS for the serve workloads so that each
// sender thread asleep in nanosleep (which keeps its P until the runtime
// retakes it, up to 10 ms later) cannot take a P away from the server.
func serveProcs() {
	runtime.GOMAXPROCS(2 * runtime.NumCPU())
}

// newServeStack starts a service; with a tracer, its handler records
// spans.
func newServeStack(tr *tracer) (*serveStack, error) {
	cfg := experiments.QuickConfig()
	svc, err := serve.New(serve.Config{Exp: cfg, RequestTimeout: requestTimeout})
	if err != nil {
		return nil, err
	}
	st := &serveStack{cfg: svc.Config(), svc: svc}
	var h http.Handler = svc.Handler()
	if tr != nil {
		h = &spanHandler{next: h, tr: tr}
	}
	if st.srv, err = startServer(h); err != nil {
		svc.Close()
		return nil, err
	}
	return st, nil
}

func (s *serveStack) close() {
	s.srv.stop()
	s.svc.BeginDrain()
	s.svc.Close()
}

// setUp builds setupReps services in turn, warming each with warm, and
// returns the last with every build-and-warm time; setup_s is their
// median.
func setUp(b *bench, warm func(*serveStack, *conn) error) (*serveStack, []float64, error) {
	var st *serveStack
	var setups []float64
	for range setupReps {
		if st != nil {
			st.close()
		}
		start := time.Now()
		var err error
		if st, err = newServeStack(b.tr); err != nil {
			return nil, nil, err
		}
		c := &conn{addr: st.srv.addr}
		err = warm(st, c)
		c.close()
		if err != nil {
			st.close()
			return nil, nil, fmt.Errorf("warming: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	return st, setups, nil
}

// noteFailure records the first failed request of a phase in the run's
// notes.
func noteFailure(b *bench, lat *latencies) {
	if lat.firstErr != nil {
		b.note("%d failed requests, the first: %v", lat.fails, lat.firstErr)
	}
}

// get fetches path and returns its body, failing on any status but 200.
func get(c *conn, path string) ([]byte, error) {
	var buf bytes.Buffer
	status, err := c.get(path, "", &buf)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("%s: status %d: %.200s", path, status, buf.Bytes())
	}
	return buf.Bytes(), err
}

// spanHandler records a serve.handler span around Handler().ServeHTTP for
// each request that carries the benchmark client's span header, as a
// child of the client's http.request span. The request class travels in
// a second header; the service ignores both.
type spanHandler struct {
	next http.Handler
	tr   *tracer
}

const (
	spanHeader  = "X-Perfbench-Span"
	classHeader = "X-Perfbench-Class"
)

// handlerSpan names the handler span of each request class.
var handlerSpan = [...]string{"serve.handler.hot", "serve.handler.cold", "serve.handler.grid"}

func (h *spanHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	parent, err := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64)
	class, _ := strconv.Atoi(r.Header.Get(classHeader))
	if err != nil || class < 0 || class >= len(handlerSpan) {
		h.next.ServeHTTP(w, r)
		return
	}
	sp := h.tr.open(handlerSpan[class], parent, parent)
	h.next.ServeHTTP(w, r)
	sp.close()
}

// forecastSpec is one forecast tuple.
type forecastSpec struct {
	site    string
	n       int
	horizon int
	params  core.Params
}

func (f forecastSpec) path() string {
	return fmt.Sprintf("/v1/forecast?site=%s&n=%d&horizon=%d&alpha=%s&d=%d&k=%d",
		f.site, f.n, f.horizon, strconv.FormatFloat(f.params.Alpha, 'g', -1, 64), f.params.D, f.params.K)
}

// gridSpec is one grid or tune query.
type gridSpec struct {
	tune   bool
	site   string
	n      int
	alphas []float64
}

func (g gridSpec) path() string {
	as := make([]string, len(g.alphas))
	for i, a := range g.alphas {
		as[i] = strconv.FormatFloat(a, 'g', -1, 64)
	}
	ep := "grid"
	if g.tune {
		ep = "tune"
	}
	return fmt.Sprintf("/v1/%s?site=%s&n=%d&alphas=%s", ep, g.site, g.n, strings.Join(as, ","))
}

func (g gridSpec) space(base optimize.Space) optimize.Space {
	base.Alphas = g.alphas
	return base
}

// directForecast replays a guarded predictor over a slot view outside
// the service, the reference every served forecast must equal bit for
// bit.
func directForecast(view *timeseries.SlotView, f forecastSpec) (*guard.Guard, []float64, error) {
	g, err := guard.New(f.n, f.params, guard.DefaultConfig())
	if err != nil {
		return nil, nil, err
	}
	for t := 0; t < view.TotalSlots(); t++ {
		if err := g.Observe(t%f.n, view.Start[t]); err != nil {
			return nil, nil, err
		}
	}
	fc, err := g.Forecast(f.horizon)
	if err != nil {
		return nil, nil, err
	}
	return g, fc.Watts, nil
}

// --- serve-hot ---------------------------------------------------------------

// hotGen draws uniformly from the warm tuple set.
type hotGen struct {
	rng    *rand.Rand
	tuples []forecastSpec
}

func (g *hotGen) next() request {
	i := g.rng.IntN(len(g.tuples))
	return request{path: g.tuples[i].path(), class: classHot, id: i}
}

// hotTuples is the serve-hot working set: QuickConfig sites × Ns × three
// horizons (next slot, a quarter day, half a day) at the guideline
// parameters.
func hotTuples(cfg experiments.Config) []forecastSpec {
	var out []forecastSpec
	for _, site := range cfg.Sites {
		for _, n := range cfg.Ns {
			for _, h := range []int{1, n / 4, n / 2} {
				out = append(out, forecastSpec{site, n, h, experiments.GuidelineParams(n)})
			}
		}
	}
	return out
}

func runServeHot(b *bench) error {
	serveProcs()
	var bodies [][]byte
	st, setups, err := setUp(b, func(st *serveStack, c *conn) error {
		bodies = nil
		for _, t := range hotTuples(st.cfg) {
			body, err := get(c, t.path())
			if err != nil {
				return err
			}
			bodies = append(bodies, body)
		}
		return nil
	})
	if err != nil {
		return err
	}
	defer st.close()
	tuples := hotTuples(st.cfg)

	// Check the warm answers once against direct replays; every served
	// body afterwards must equal its tuple's checked body byte for byte.
	ref := experiments.NewStore(st.cfg)
	for i, t := range tuples {
		view, err := ref.View(t.site, st.cfg.Days, t.n)
		if err != nil {
			return err
		}
		_, want, err := directForecast(view, t)
		if err != nil {
			return err
		}
		var got serve.ForecastResult
		err = json.Unmarshal(bodies[i], &got)
		b.verify("serve-hot.forecast", err == nil && slices.Equal(got.Watts, want) && !got.Degraded,
			"%s: served %v, direct replay %v (%v)", t.path(), got.Watts, want, err)
	}
	b.shape["distinct_tuples"] = len(tuples)
	b.shape["open_loop_rps"] = hotRate

	var mismatches atomic.Int64
	gen := &hotGen{rng: rand.New(rand.NewPCG(b.seed, 0x686f74)), tuples: tuples}
	onResp := func(lat *latencies) func(*response) {
		return func(r *response) {
			lat.add(r)
			if r.err == nil && r.status == http.StatusOK && !bytes.Equal(r.body, bodies[r.req.id]) {
				mismatches.Add(1)
			}
		}
	}
	check := func(lat *latencies) {
		noteFailure(b, lat)
		ok := int64(len(lat.lat)) - lat.fails
		bad := mismatches.Swap(0)
		b.attempted += int64(len(lat.lat))
		b.fail(lat.fails + bad)
		b.tally("serve-hot.body_identical", ok-bad, bad, "a response differs from its tuple's checked body")
	}
	if b.trace {
		drng := rand.New(rand.NewPCG(b.seed, 0x646972))
		direct := func(ctx context.Context) (reqClass, error) {
			t := tuples[drng.IntN(len(tuples))]
			_, err := st.svc.Forecast(ctx, t.site, t.n, t.horizon, t.params)
			return classHot, err
		}
		if err := traceServe(b, st, gen, hotRate, hotBurst, onResp, check, direct); err != nil {
			return err
		}
		return traceGuard(b, st.cfg, tuples)
	}
	b.set("setup_s", median(setups))
	return measureServe(b, st, gen, hotRate, hotBurst, onResp, check)
}

// measureServe runs the untraced load: rounds of one open-loop window
// followed by one closed-loop burst, one round per second of the
// measuring window. The open-loop window has a fixed length; the burst a
// fixed request count sized to about (1-openShare) of a second at the
// workload's typical saturation, so a run's inputs, and the state they
// leave behind, depend on the seed alone. Each metric is the median over
// rounds of that round's value, so a transient stall moves one round,
// not the result.
func measureServe(b *bench, st *serveStack, gen generator, rate float64, burst int,
	onResp func(*latencies) func(*response), check func(*latencies)) error {
	senders := runtime.NumCPU()
	rounds := max(3, int(b.seconds))
	share := 1 / float64(rounds)
	arrivals := rand.New(rand.NewPCG(b.seed, 0x6f70656e))
	var p50s, p99s, rps []float64
	var all latencies
	requests := 0
	for range rounds {
		// Start each open-loop window from a collected heap, not from the
		// garbage the previous burst left.
		runtime.GC()
		var open latencies
		p := &phase{addr: st.srv.addr, senders: senders, rate: rate,
			until: b.deadline(openShare * share), rng: arrivals, gen: gen, onResp: onResp(&open)}
		p.run()
		check(&open)
		if len(open.lat) == 0 {
			return errNoSamples
		}
		sorted := sortedCopy(open.lat)
		p50s = append(p50s, quantile(sorted, 0.5))
		p99s = append(p99s, quantile(sorted, 0.99))
		all.lat = append(all.lat, open.lat...)
		all.late = append(all.late, open.late...)

		var closed latencies
		c := &phase{addr: st.srv.addr, senders: senders,
			limit: burst, gen: gen, onResp: onResp(&closed)}
		n, wall := c.run()
		check(&closed)
		rps = append(rps, float64(n)/wall.Seconds())
		requests += n
	}
	b.set("latency_p50_ms", median(p50s))
	b.set("saturation_rps", median(rps))
	sorted, late := sortedCopy(all.lat), sortedCopy(all.late)
	b.note("open loop: %d requests at %.0f rps offered over %d rounds; whole-run p50 %.3f ms, p99 %.3f ms; generator late p50 %.3f ms, p99 %.3f ms",
		len(sorted), rate, rounds, quantile(sorted, 0.5), quantile(sorted, 0.99), quantile(late, 0.5), quantile(late, 0.99))
	// The p99 is recorded, not gated: on a shared 2-vCPU VM it moves by
	// more than any useful bound from run to run (host contention delays
	// thread wake-ups by milliseconds), even as a median over rounds.
	b.shape["rounds"] = rounds
	b.shape["latency_p99_ms"] = median(p99s)
	b.shape["latency_p99_whole_run_ms"] = quantile(sorted, 0.99)
	b.shape["round_p99_ms"] = p99s
	b.shape["round_rps"] = rps
	b.shape["open_loop_requests"] = len(sorted)
	b.shape["generator_late_p99_ms"] = quantile(late, 0.99)
	b.shape["closed_loop_requests"] = requests
	b.shape["closed_loop_connections"] = senders

	setMemory(b)
	return nil
}

// --- serve-churn -------------------------------------------------------------

// churnGen grows a population of virtual nodes, each with its own jittered
// (site, N, α, D, K). A steady share of forecasts comes from first-time
// nodes (a guarded replay through the batcher), the rest from random
// warm nodes; a small share of requests are grid and tune queries with
// their own α lists (a cold grid search each).
type churnGen struct {
	rng   *rand.Rand
	cfg   experiments.Config
	nodes []forecastSpec
	log   []any // request id → forecastSpec or gridSpec
	drawn [3]int
}

func (g *churnGen) newNode() forecastSpec {
	n := g.cfg.Ns[g.rng.IntN(len(g.cfg.Ns))]
	base := experiments.GuidelineParams(n)
	wobble := func() float64 { return 1 + 0.3*(2*g.rng.Float64()-1) }
	p := core.Params{
		Alpha: math.Min(1, base.Alpha*wobble()),
		D:     max(1, int(math.Round(float64(base.D)*wobble()))),
		K:     min(n, max(1, base.K+g.rng.IntN(3)-1)),
	}
	return forecastSpec{
		site:    g.cfg.Sites[g.rng.IntN(len(g.cfg.Sites))],
		n:       n,
		horizon: []int{1, n / 4, n / 2}[g.rng.IntN(3)],
		params:  p,
	}
}

func (g *churnGen) next() request {
	id := len(g.log)
	u := g.rng.Float64()
	switch {
	case u < churnGrid:
		gs := gridSpec{
			tune: g.rng.IntN(2) == 1,
			site: g.cfg.Sites[g.rng.IntN(len(g.cfg.Sites))],
			n:    g.cfg.Ns[g.rng.IntN(len(g.cfg.Ns))],
		}
		for range churnAlphas {
			gs.alphas = append(gs.alphas, g.rng.Float64())
		}
		slices.Sort(gs.alphas)
		g.log = append(g.log, gs)
		g.drawn[classGrid]++
		return request{path: gs.path(), class: classGrid, id: id}
	case u < churnGrid+churnCold*(1-churnGrid) || len(g.nodes) == 0:
		f := g.newNode()
		g.nodes = append(g.nodes, f)
		g.log = append(g.log, f)
		g.drawn[classCold]++
		return request{path: f.path(), class: classCold, id: id}
	default:
		f := g.nodes[g.rng.IntN(len(g.nodes))]
		g.log = append(g.log, f)
		g.drawn[classHot]++
		return request{path: f.path(), class: classHot, id: id}
	}
}

// churnChecker keeps a seeded sample of responses and checks them after
// the run against direct replays and direct grid searches.
type churnChecker struct {
	mu     sync.Mutex
	sample map[int][]byte
}

func (c *churnChecker) keep(r *response) {
	if r.req.id%checkEvery != 0 || r.err != nil || r.status != http.StatusOK {
		return
	}
	c.mu.Lock()
	c.sample[r.req.id] = bytes.Clone(r.body)
	c.mu.Unlock()
}

func (c *churnChecker) verify(b *bench, cfg experiments.Config, log []any) error {
	ref := experiments.NewStore(cfg)
	grids := map[string]*optimize.SearchResult{}
	forecasts, gridChecks := 0, 0
	for _, id := range sortedIntKeys(c.sample) {
		body := c.sample[id]
		switch spec := log[id].(type) {
		case forecastSpec:
			view, err := ref.View(spec.site, cfg.Days, spec.n)
			if err != nil {
				return err
			}
			_, want, err := directForecast(view, spec)
			if err != nil {
				return err
			}
			var got serve.ForecastResult
			err = json.Unmarshal(body, &got)
			forecasts++
			b.verify("serve-churn.forecast", err == nil && slices.Equal(got.Watts, want),
				"%s: served %v, direct replay %v (%v)", spec.path(), got.Watts, want, err)
		case gridSpec:
			space := spec.space(cfg.Space)
			key := spec.site + strconv.Itoa(spec.n) + expstore.SpaceFingerprint(space)
			res, ok := grids[key]
			if !ok {
				view, err := ref.View(spec.site, cfg.Days, spec.n)
				if err != nil {
					return err
				}
				e, err := optimize.NewEval(view, optimize.WithWarmupDays(cfg.WarmupDays))
				if err != nil {
					return err
				}
				if res, err = e.GridSearch(space, optimize.RefSlotMean); err != nil {
					return err
				}
				grids[key] = res
			}
			var got struct {
				Best serve.CellResult `json:"best"`
			}
			err := json.Unmarshal(body, &got)
			want := res.Best
			gridChecks++
			b.verify("serve-churn.grid_best", err == nil && got.Best.Alpha == want.Params.Alpha &&
				got.Best.D == want.Params.D && got.Best.K == want.Params.K && got.Best.MAPE == want.Report.MAPE,
				"%s: served best %+v, direct grid search %+v (%v)", spec.path(), got.Best, want, err)
		}
	}
	b.shape["checked_forecasts"] = forecasts
	b.shape["checked_grids"] = gridChecks
	return nil
}

func sortedIntKeys[V any](m map[int]V) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

func runServeChurn(b *bench) error {
	serveProcs()
	var gen *churnGen
	st, setups, err := setUp(b, func(st *serveStack, c *conn) error {
		gen = &churnGen{rng: rand.New(rand.NewPCG(b.seed, 0x636875726e)), cfg: st.cfg}
		for range churnInitial {
			f := gen.newNode()
			gen.nodes = append(gen.nodes, f)
			if _, err := get(c, f.path()); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	defer st.close()
	b.shape["initial_nodes"] = churnInitial
	b.shape["open_loop_rps"] = churnRate

	checker := &churnChecker{sample: map[int][]byte{}}
	onResp := func(lat *latencies) func(*response) {
		return func(r *response) {
			lat.add(r)
			checker.keep(r)
		}
	}
	before := st.svc.Stats()
	check := func(lat *latencies) {
		noteFailure(b, lat)
		b.attempted += int64(len(lat.lat))
		b.fail(lat.fails)
	}
	if b.trace {
		direct := func(ctx context.Context) (reqClass, error) {
			r := gen.next()
			return r.class, directService(ctx, st.svc, gen.log[r.id])
		}
		err = traceServe(b, st, gen, churnRate, churnBurst, onResp, check, direct)
		if err == nil {
			err = traceGuard(b, st.cfg, gen.nodes[:16])
		}
		if err == nil {
			err = traceStore(b, st.cfg, rand.New(rand.NewPCG(b.seed, 0x67726964)))
		}
	} else {
		b.set("setup_s", median(setups))
		err = measureServe(b, st, gen, churnRate, churnBurst, onResp, check)
	}
	if err != nil {
		return err
	}
	after := st.svc.Stats()
	total := len(gen.log)
	b.shape["requests"] = total
	b.shape["nodes"] = len(gen.nodes)
	b.shape["cold_frac"] = ratio(float64(gen.drawn[classCold]), float64(total))
	b.shape["grid_frac"] = ratio(float64(gen.drawn[classGrid]), float64(total))
	b.shape["server_computation_frac"] = ratio(float64(after.Batcher.Computations-before.Batcher.Computations), float64(total))
	return checker.verify(b, st.cfg, gen.log)
}

// directService replays a request's semantics through Service methods,
// with no HTTP and no JSON.
func directService(ctx context.Context, svc *serve.Service, spec any) error {
	switch s := spec.(type) {
	case forecastSpec:
		_, err := svc.Forecast(ctx, s.site, s.n, s.horizon, s.params)
		return err
	case gridSpec:
		space := s.space(svc.Config().Space)
		if s.tune {
			_, err := svc.Tune(ctx, s.site, s.n, space, optimize.RefSlotMean)
			return err
		}
		_, err := svc.Grid(ctx, s.site, s.n, space, optimize.RefSlotMean)
		return err
	}
	return fmt.Errorf("unknown spec %T", spec)
}
