package core

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// sameBits reports whether two floats are bit-identical.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// assertSameView checks that got answers every read-only query exactly
// as want does: Predict, Forecast for every horizon, Phi at every slot
// and Terms for every window size.
func assertSameView(t *testing.T, stop int, got, want *Predictor) {
	t.Helper()
	n := want.N()
	params := want.Params()
	if got.Params() != params || got.HistoryDays() != want.HistoryDays() || got.Ready() != want.Ready() {
		t.Fatalf("stop %d %+v: metadata differs: %+v/%d vs %+v/%d",
			stop, params, got.Params(), got.HistoryDays(), params, want.HistoryDays())
	}
	gp, gerr := got.Predict()
	wp, werr := want.Predict()
	if (gerr == nil) != (werr == nil) || !sameBits(gp, wp) {
		t.Fatalf("stop %d %+v: Predict derived %v (%v), direct %v (%v)", stop, params, gp, gerr, wp, werr)
	}
	if werr != nil {
		return // nothing observed today: every other query errors alike
	}
	for h := 1; h <= n; h++ {
		gf, err := got.Forecast(h)
		if err != nil {
			t.Fatal(err)
		}
		wf, err := want.Forecast(h)
		if err != nil {
			t.Fatal(err)
		}
		for i := range wf {
			if !sameBits(gf[i], wf[i]) {
				t.Fatalf("stop %d %+v: Forecast(%d)[%d] derived %v, direct %v", stop, params, h, i, gf[i], wf[i])
			}
		}
	}
	for j := 0; j < n; j++ {
		if g, w := got.Phi(j), want.Phi(j); !sameBits(g, w) {
			t.Fatalf("stop %d %+v: Phi(%d) derived %v, direct %v", stop, params, j, g, w)
		}
	}
	for k := 1; k <= n; k++ {
		gpers, gcond, err := got.Terms(k)
		if err != nil {
			t.Fatal(err)
		}
		wpers, wcond, err := want.Terms(k)
		if err != nil {
			t.Fatal(err)
		}
		if !sameBits(gpers, wpers) || !sameBits(gcond, wcond) {
			t.Fatalf("stop %d %+v: Terms(%d) derived (%v, %v), direct (%v, %v)",
				stop, params, k, gpers, gcond, wpers, wcond)
		}
	}
}

// TestDeriveMatchesDirectReplay pins Derive against predictors built
// with the target parameters and fed the same stream: at every stop
// point of a short noisy trace — before any observation, before the
// first day roll, across every day boundary and after the history ring
// wraps — a view derived from one K=1 replay answers bit for bit like a
// direct replay, for every K in 1..N and α ∈ {0, 0.5, 1}.
func TestDeriveMatchesDirectReplay(t *testing.T) {
	const n, d, days = 12, 3, 6
	base := mustNew(t, n, Params{Alpha: 0, D: d, K: 1})
	var direct []*Predictor
	for k := 1; k <= n; k++ {
		for _, alpha := range []float64{0, 0.5, 1} {
			direct = append(direct, mustNew(t, n, Params{Alpha: alpha, D: d, K: k}))
		}
	}
	rng := rand.New(rand.NewSource(14))
	for stop := 0; stop <= days*n; stop++ {
		for _, want := range direct {
			got, err := base.Derive(want.Params())
			if err != nil {
				t.Fatal(err)
			}
			assertSameView(t, stop, got, want)
		}
		if stop == days*n {
			break
		}
		slot := stop % n
		power := rng.Float64() * 900
		if slot < 2 || slot > 9 || rng.Intn(5) == 0 {
			power = 0 // night and dark slots take the neutral η path
		}
		if err := base.Observe(slot, power); err != nil {
			t.Fatal(err)
		}
		for _, p := range direct {
			if err := p.Observe(slot, power); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestDeriveErrors(t *testing.T) {
	base := mustNew(t, 4, Params{Alpha: 0.5, D: 2, K: 1})
	feedDay(t, base, []float64{1, 2, 3, 4})
	feedDay(t, base, []float64{2, 3, 4, 5})
	for _, params := range []Params{
		{Alpha: 0.5, D: 3, K: 1}, // D mismatch
		{Alpha: 0.5, D: 2, K: 5}, // K > N
		{Alpha: 1.5, D: 2, K: 1}, // α out of range
		{Alpha: 0.5, D: 2, K: 0}, // K < 1
	} {
		if _, err := base.Derive(params); err == nil {
			t.Errorf("Derive(%+v) accepted", params)
		}
	}
	view, err := base.Derive(Params{Alpha: 0.2, D: 2, K: 3})
	if err != nil {
		t.Fatal(err)
	}
	before, err := base.Forecast(4)
	if err != nil {
		t.Fatal(err)
	}
	if err := view.Observe(0, 7); !errors.Is(err, ErrDerived) {
		t.Errorf("Observe on a derived predictor: %v, want ErrDerived", err)
	}
	if err := view.Reset(); !errors.Is(err, ErrDerived) {
		t.Errorf("Reset on a derived predictor: %v, want ErrDerived", err)
	}
	after, err := base.Forecast(4)
	if err != nil {
		t.Fatal(err)
	}
	for i := range before {
		if !sameBits(before[i], after[i]) {
			t.Fatalf("refused Observe/Reset changed the base: %v -> %v", before, after)
		}
	}
}

// TestRollDayMatchesColumnSums pins rollDay's row-major μD refresh
// against a per-slot column sum, on random histories with
// a wide dynamic range (so a different addition order would show), both
// while the ring is partially filled and after it wraps.
func TestRollDayMatchesColumnSums(t *testing.T) {
	const n = 16
	for _, d := range []int{1, 3, 7} {
		p := mustNew(t, n, Params{Alpha: 0.5, D: d, K: 2})
		rng := rand.New(rand.NewSource(int64(d)))
		for day := 0; day < 2*d+2; day++ {
			for slot := 0; slot < n; slot++ {
				power := rng.ExpFloat64() * math.Pow(10, float64(rng.Intn(12)-4))
				if err := p.Observe(slot, power); err != nil {
					t.Fatal(err)
				}
				if slot != 0 || day == 0 {
					continue
				}
				for j := 0; j < n; j++ {
					var sum float64
					for r := 0; r < p.histDays; r++ {
						sum += p.hist[r][j]
					}
					if want := sum / float64(p.histDays); !sameBits(p.muTable[j], want) {
						t.Fatalf("D=%d day %d (%d rows) slot %d: μ %v, column sum %v",
							d, day, p.histDays, j, p.muTable[j], want)
					}
				}
			}
		}
	}
}
