package serve

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"

	"solarpred/internal/core"
	"solarpred/internal/dataset"
	"solarpred/internal/guard"
	"solarpred/internal/timeseries"
)

// directView slots a site's trace straight from the dataset, bypassing
// the service's store.
func directView(t *testing.T, site string, days, n int) *timeseries.SlotView {
	t.Helper()
	s, err := dataset.SiteByName(site)
	if err != nil {
		t.Fatal(err)
	}
	series, err := dataset.GenerateDays(s, days)
	if err != nil {
		t.Fatal(err)
	}
	view, err := series.Slot(n)
	if err != nil {
		t.Fatal(err)
	}
	return view
}

// directForecast replays a guard with params over view and forecasts h
// slots: the reference a served forecast must equal bit for bit.
func directForecast(t *testing.T, view *timeseries.SlotView, params core.Params, h int) *guard.Forecast {
	t.Helper()
	g, err := guard.New(view.N, params, guard.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range view.Start {
		if err := g.Observe(i%view.N, x); err != nil {
			t.Fatal(err)
		}
	}
	f, err := g.Forecast(h)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// checkForecast compares a served forecast with its direct replay.
func checkForecast(t *testing.T, got *ForecastResult, want *guard.Forecast) {
	t.Helper()
	if got.Degraded != want.Degraded || got.Quality != want.Quality || len(got.Watts) != len(want.Watts) {
		t.Fatalf("%+v: served %+v, direct %+v", got.Params, got, want)
	}
	for i := range want.Watts {
		if math.Float64bits(got.Watts[i]) != math.Float64bits(want.Watts[i]) {
			t.Fatalf("%+v: watt %d served %v, direct %v", got.Params, i, got.Watts[i], want.Watts[i])
		}
	}
}

// distinctParams returns count (α, K) points sharing one D, every α
// distinct.
func distinctParams(count, d, n int) []core.Params {
	out := make([]core.Params, count)
	for i := range out {
		out[i] = core.Params{Alpha: float64(i) / float64(count-1), D: d, K: 1 + i%n}
	}
	return out
}

// TestDistinctAlphasShareOneReplay pins the service's state bound: 200
// distinct (α, K) for one (site, N, D) cost exactly one flight
// computation (one guard replay), and every served body equals a direct
// replay at its own parameters.
func TestDistinctAlphasShareOneReplay(t *testing.T) {
	svc := newTestService(t)
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	cfg := svc.Config()
	const n, d = 48, 10
	site := cfg.Sites[0]
	view := directView(t, site, cfg.Days, n)
	for i, p := range distinctParams(200, d, n) {
		h := 1 + i%n
		var got ForecastResult
		url := fmt.Sprintf("%s/v1/forecast?site=%s&n=%d&horizon=%d&alpha=%v&d=%d&k=%d",
			ts.URL, site, n, h, p.Alpha, p.D, p.K)
		if code := getJSON(t, url, &got); code != http.StatusOK {
			t.Fatalf("%s: status %d", url, code)
		}
		checkForecast(t, &got, directForecast(t, view, p, h))
		if got.Params != (Params{Alpha: p.Alpha, D: p.D, K: p.K}) || got.HistoryDays != d {
			t.Fatalf("metadata: %+v", got)
		}
	}
	if c := svc.Stats().Batcher.Computations; c != 1 {
		t.Fatalf("batcher computations = %d, want 1", c)
	}
	if _, ok := svc.GuardStats(site, n, core.Params{Alpha: 0.123, D: d, K: 5}); !ok {
		t.Fatal("GuardStats missing for a tuple of the replayed base")
	}
	if _, ok := svc.GuardStats(site, n, core.Params{Alpha: 0.5, D: d + 1, K: 1}); ok {
		t.Fatal("GuardStats reported a D that was never replayed")
	}
}

// TestDistinctAlphasBoundedMemory pins that the service keeps no state
// per distinct (α, K): once a base is published, 2000 forecasts at
// distinct α grow the live heap by under 1 MiB.
func TestDistinctAlphasBoundedMemory(t *testing.T) {
	svc := newTestService(t)
	site := svc.Config().Sites[0]
	const n, d = 48, 10
	ctx := context.Background()
	if _, err := svc.Forecast(ctx, site, n, 1, core.Params{Alpha: 0.5, D: d, K: 1}); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for _, p := range distinctParams(2000, d, n) {
		if _, err := svc.Forecast(ctx, site, n, 1, p); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew > 1<<20 {
		t.Fatalf("2000 distinct α grew the live heap by %d bytes", grew)
	}
}

// TestConcurrentDerivesFromOneBase has many goroutines derive views from
// one published base at once (run with -race): each gets its own ΦK
// window over the shared read-only history and the direct replay's
// answer.
func TestConcurrentDerivesFromOneBase(t *testing.T) {
	svc := newTestService(t)
	site := svc.Config().Sites[0]
	const n, d, h, workers = 24, 7, 6, 8
	params := distinctParams(64, d, n)
	view := directView(t, site, svc.Config().Days, n)
	want := make([]*guard.Forecast, len(params))
	for i, p := range params {
		want[i] = directForecast(t, view, p, h)
	}
	ctx := context.Background()
	if _, err := svc.Forecast(ctx, site, n, h, params[0]); err != nil {
		t.Fatal(err)
	}
	got := make([]*ForecastResult, len(params))
	errs := make([]error, len(params))
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < len(params); i += workers {
				got[i], errs[i] = svc.Forecast(ctx, site, n, h, params[i])
			}
		}()
	}
	wg.Wait()
	for i := range params {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		checkForecast(t, got[i], want[i])
	}
	if c := svc.Stats().Batcher.Computations; c != 1 {
		t.Fatalf("batcher computations = %d, want 1", c)
	}
}
