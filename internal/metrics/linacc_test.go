package metrics

import (
	"math"
	"math/rand"
	"testing"
)

// directBank scores the same stream with one Accumulator per α computing
// the affine prediction ê(α) = α·pers + (1−α)·cond directly — the
// O(|alphas|)-per-sample reference AlphaSweep must reproduce.
type directBank struct {
	alphas []float64
	accs   []Accumulator
}

func newDirectBank(t *testing.T, alphas []float64) *directBank {
	t.Helper()
	b := &directBank{alphas: alphas, accs: make([]Accumulator, len(alphas))}
	for i := range b.accs {
		acc, err := MakeAccumulator(0)
		if err != nil {
			t.Fatal(err)
		}
		b.accs[i] = acc
	}
	return b
}

func (b *directBank) addInROI(pers, cond, ref, invRef float64) {
	for i, a := range b.alphas {
		b.accs[i].AddInROI(a*pers+(1-a)*cond, ref, invRef)
	}
}

func (b *directBank) addOutsideROI(count int) {
	for i := range b.accs {
		b.accs[i].AddOutsideROI(count)
	}
}

func (b *directBank) reports() []Report {
	out := make([]Report, len(b.accs))
	for i := range b.accs {
		out[i] = b.accs[i].Snapshot()
	}
	return out
}

// closeAbs compares within 1e-9 scaled to the magnitude of the expected
// value: the sweep reassociates sums, so ulp-level drift is legitimate.
func closeAbs(got, want float64) bool {
	if got == want {
		return true
	}
	return math.Abs(got-want) <= 1e-9*(math.Abs(want)+1)
}

func checkReports(t *testing.T, label string, got, want []Report) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d reports, want %d", label, len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Samples != w.Samples || g.OutsideROI != w.OutsideROI {
			t.Fatalf("%s α[%d]: counts (%d,%d), want (%d,%d)",
				label, i, g.Samples, g.OutsideROI, w.Samples, w.OutsideROI)
		}
		if !closeAbs(g.MAPE, w.MAPE) {
			t.Fatalf("%s α[%d]: MAPE %v, want %v", label, i, g.MAPE, w.MAPE)
		}
		if !closeAbs(g.RMSE, w.RMSE) {
			t.Fatalf("%s α[%d]: RMSE %v, want %v", label, i, g.RMSE, w.RMSE)
		}
		if !closeAbs(g.MAE, w.MAE) {
			t.Fatalf("%s α[%d]: MAE %v, want %v", label, i, g.MAE, w.MAE)
		}
		if !closeAbs(g.MBE, w.MBE) {
			t.Fatalf("%s α[%d]: MBE %v, want %v", label, i, g.MBE, w.MBE)
		}
		if !closeAbs(g.MaxAbsErr, w.MaxAbsErr) {
			t.Fatalf("%s α[%d]: MaxAbsErr %v, want %v", label, i, g.MaxAbsErr, w.MaxAbsErr)
		}
	}
}

// feedRandom streams samples designed to hit every accumulation path:
// breakpoints inside and far outside the grid, both slope signs, exact
// zero slopes, zero terms, and the occasional huge error that exercises
// the max-tracking prune. The bank takes one sample at a time; the sweep
// takes them in batches of random length.
func feedRandom(rng *rand.Rand, n int, sw *AlphaSweep, bank *directBank) {
	var pers, cond, ref, inv []float64
	flush := func() {
		sw.AddInROIBatch(pers, cond, ref, inv)
		pers, cond, ref, inv = pers[:0], cond[:0], ref[:0], inv[:0]
	}
	for i := 0; i < n; i++ {
		r := 1 + rng.Float64()*1199
		var p, c float64
		switch rng.Intn(8) {
		case 0: // exact zero slope
			p = rng.Float64() * 1200
			c = p
		case 1: // breakpoint far below the grid
			p = rng.Float64() * 10
			c = 5000 + rng.Float64()*5000
		case 2: // breakpoint far above the grid
			p = 5000 + rng.Float64()*5000
			c = rng.Float64() * 10
		case 3: // zero terms
			p = 0
			c = rng.Float64() * 1200
		case 4: // negative terms: the affine contract has no clamp
			p = -rng.Float64() * 50
			c = rng.Float64() * 1200
		default:
			p = rng.Float64() * 1200
			c = rng.Float64() * 1200
		}
		pers, cond, ref, inv = append(pers, p), append(cond, c), append(ref, r), append(inv, 1/r)
		bank.addInROI(p, c, r, 1/r)
		if rng.Intn(10) == 0 {
			k := 1 + rng.Intn(5)
			sw.AddOutsideROI(k)
			bank.addOutsideROI(k)
		}
		if rng.Intn(40) == 0 {
			flush()
		}
	}
	flush()
}

func TestAlphaSweepMatchesAccumulatorBank(t *testing.T) {
	grids := map[string][]float64{
		"paper":     {0, 0.2, 0.4, 0.6, 0.8, 1},
		"single":    {0.5},
		"unsorted":  {0.8, 0.2, 0.8, 0, 1, 0.4},
		"endpoints": {0, 1},
		"wide-binary": func() []float64 { // > 16 alphas exercises binary search
			var g []float64
			for i := 0; i <= 24; i++ {
				g = append(g, float64(i)/24)
			}
			return g
		}(),
	}
	for name, alphas := range grids {
		t.Run(name, func(t *testing.T) {
			sw, err := NewAlphaSweep(alphas)
			if err != nil {
				t.Fatal(err)
			}
			bank := newDirectBank(t, alphas)
			feedRandom(rand.New(rand.NewSource(42)), 4000, sw, bank)
			if sw.n != bank.accs[0].N() || sw.outsideROI != bank.accs[0].OutsideROI() {
				t.Fatalf("counts: sweep (%d,%d), bank (%d,%d)",
					sw.n, sw.outsideROI, bank.accs[0].N(), bank.accs[0].OutsideROI())
			}
			checkReports(t, name, sw.Reports(), bank.reports())
		})
	}
}

func TestAlphaSweepEmptyReports(t *testing.T) {
	sw, err := NewAlphaSweep([]float64{0, 0.5, 1})
	if err != nil {
		t.Fatal(err)
	}
	sw.AddOutsideROI(7)
	for i, r := range sw.Reports() {
		if r.Samples != 0 || r.OutsideROI != 7 || r.MAPE != 0 || r.RMSE != 0 ||
			r.MAE != 0 || r.MBE != 0 || r.MaxAbsErr != 0 {
			t.Fatalf("α[%d]: empty sweep report %+v", i, r)
		}
	}
}

func TestAlphaSweepReconfigure(t *testing.T) {
	first := []float64{0, 0.5, 1}
	sw, err := NewAlphaSweep(first)
	if err != nil {
		t.Fatal(err)
	}
	sw.AddInROIBatch([]float64{100}, []float64{200}, []float64{150}, []float64{1.0 / 150})
	sw.AddOutsideROI(3)

	// Same grid: state must reset, configuration must survive.
	if err := sw.Reconfigure(first); err != nil {
		t.Fatal(err)
	}
	if sw.n != 0 || sw.outsideROI != 0 {
		t.Fatalf("Reconfigure kept state: N=%d outside=%d", sw.n, sw.outsideROI)
	}
	bank := newDirectBank(t, first)
	feedRandom(rand.New(rand.NewSource(7)), 500, sw, bank)
	checkReports(t, "same-grid", sw.Reports(), bank.reports())

	// Different (larger, then smaller) grids reuse the accumulator.
	for _, next := range [][]float64{{0, 0.1, 0.3, 0.7, 0.9, 1}, {0.25}} {
		if err := sw.Reconfigure(next); err != nil {
			t.Fatal(err)
		}
		bank := newDirectBank(t, next)
		feedRandom(rand.New(rand.NewSource(11)), 500, sw, bank)
		checkReports(t, "regrid", sw.Reports(), bank.reports())
	}
}

func TestAlphaSweepRejectsBadGrids(t *testing.T) {
	for _, bad := range [][]float64{nil, {}, {0.5, math.NaN()}, {math.Inf(1)}} {
		if _, err := NewAlphaSweep(bad); err == nil {
			t.Fatalf("grid %v accepted", bad)
		}
	}
}

// addInROIScalar is the one-prediction-at-a-time update the batch kernel
// replaced, kept as the reference AddInROIBatch must match bit for bit:
// the sums live in the struct, the slope's sign picks the bucket row by
// a branch, and every prediction pays the full breakpoint count.
func (a *AlphaSweep) addInROIScalar(pers, cond, ref, invRef float64) {
	a.n++
	c := ref - cond
	m := cond - pers
	a.sumC += c
	a.sumM += m
	a.sumCC += c * c
	a.sumCM += c * m
	a.sumMM += m * m
	if math.Abs(c+m*a.lo) > a.maxFloor || math.Abs(c+m*a.hi) > a.maxFloor {
		a.maxFloor = a.updateMax(c, m)
	}
	if m == 0 {
		absC := math.Abs(c)
		a.baseAbs += absC
		a.baseWAbs += invRef * absC
		return
	}
	b := bucketOf(a.sorted, c, m)
	var bk *bucket
	if m > 0 {
		bk = &a.buckets[b]
	} else {
		bk = &a.buckets[len(a.sorted)+1+b]
	}
	bk.c += c
	bk.m += m
	bk.wc += invRef * c
	bk.wm += invRef * m
}

// exactGrids are the α grids the exactness fuzz draws from: the paper's
// grid, unsorted grids with duplicates, signed zeros, negative alphas,
// a single α, and grids wider than 16 (the bucketWide path).
var exactGrids = [][]float64{
	{0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1},
	{0.8, 0.2, 0.8, 0, 1, 0.4},
	{math.Copysign(0, -1), 0.5, 0, 1, math.Copysign(0, -1)},
	{0.5},
	{-1, -0.5, 0, 2},
	func() []float64 {
		var g []float64
		for i := 0; i <= 24; i++ {
			g = append(g, float64(i)/24)
		}
		return append(g, 0.5)
	}(),
	func() []float64 {
		g := []float64{math.Copysign(0, -1), 0}
		for i := 20; i >= 1; i-- {
			g = append(g, float64(i)/10-1)
		}
		return g
	}(),
}

// exactStream draws n (pers, cond, ref, 1/ref) samples that hit the
// kernel's edge cases: zero slopes, a persistence term equal to the
// reference (a site whose slots match its recording resolution), a
// conditioned term equal to the reference (a zero error at α = 0),
// small integers whose errors vanish exactly at grid points, signed
// zeros, breakpoints far outside the grid, and the raw triple (x, y, z).
func exactStream(rng *rand.Rand, n int, x, y, z float64) (pers, cond, ref, inv []float64) {
	negZero := math.Copysign(0, -1)
	small := []float64{negZero, 0, 0.5, 1, 2, 4}
	for i := 0; i < n; i++ {
		r := 1 + rng.Float64()*1199
		p, c := rng.Float64()*1200, rng.Float64()*1200
		switch rng.Intn(10) {
		case 0: // m == 0
			c = p
		case 1: // pers == ref
			p = r
		case 2: // cond == ref
			c = r
		case 3: // exact ties at grid points
			p, c, r = small[rng.Intn(len(small))], small[rng.Intn(len(small))], small[rng.Intn(len(small))]
		case 4: // signed zeros everywhere
			p, c, r = small[rng.Intn(2)], small[rng.Intn(2)], small[rng.Intn(2)]
		case 5: // breakpoint far outside the grid
			c = 5000 + rng.Float64()*5000
		case 6:
			p, c, r = x, y, z
		case 7:
			p, c, r = y, x, z
		}
		w := 0.0
		if r != 0 {
			w = 1 / r
		}
		pers, cond, ref, inv = append(pers, p), append(cond, c), append(ref, r), append(inv, w)
	}
	return pers, cond, ref, inv
}

// sameBits reports whether two reports agree bit for bit on every field.
func sameBits(a, b Report) bool {
	return math.Float64bits(a.MAPE) == math.Float64bits(b.MAPE) &&
		math.Float64bits(a.RMSE) == math.Float64bits(b.RMSE) &&
		math.Float64bits(a.MAE) == math.Float64bits(b.MAE) &&
		math.Float64bits(a.MBE) == math.Float64bits(b.MBE) &&
		math.Float64bits(a.MaxAbsErr) == math.Float64bits(b.MaxAbsErr) &&
		a.Samples == b.Samples && a.OutsideROI == b.OutsideROI
}

// FuzzAlphaSweepBatchExact pins the batch kernel to the scalar reference
// update: for any stream, grid and batch size, every Report field must
// match bit for bit, mid-stream as well as at the end.
func FuzzAlphaSweepBatchExact(f *testing.F) {
	negZero := math.Copysign(0, -1)
	f.Add(int64(1), uint8(0), uint16(600), uint8(7), 300.0, 800.0, 500.0)
	f.Add(int64(2), uint8(1), uint16(600), uint8(1), 500.0, 500.0, 300.0)             // m == 0
	f.Add(int64(3), uint8(0), uint16(600), uint8(63), 300.0, 800.0, 300.0)            // pers == ref
	f.Add(int64(4), uint8(2), uint16(600), uint8(16), negZero, 0.0, 0.0)              // ±0 endpoint errors
	f.Add(int64(5), uint8(5), uint16(600), uint8(200), 2.0, 1.0, 2.0)                 // wide grid
	f.Add(int64(6), uint8(6), uint16(600), uint8(33), negZero, negZero, 1.0)          // wide, signed zeros
	f.Add(int64(7), uint8(4), uint16(600), uint8(5), 1.0, 3.0, 2.0)                   // negative alphas
	f.Add(int64(8), uint8(3), uint16(600), uint8(9), 0.0, 1.0, 1.0)                   // single α
	f.Add(int64(5), uint8(2), uint16(730), uint8(208), 0.2, 1.0, 0.45714285714285713) // −0 intercept
	f.Fuzz(func(t *testing.T, seed int64, gridSel uint8, length uint16, batchSel uint8, x, y, z float64) {
		for _, v := range []float64{x, y, z} {
			if math.IsNaN(v) || math.Abs(v) > 1e150 {
				t.Skip("inputs must be finite; squares must not overflow")
			}
		}
		alphas := exactGrids[int(gridSel)%len(exactGrids)]
		rng := rand.New(rand.NewSource(seed))
		pers, cond, ref, inv := exactStream(rng, int(length)%2000, x, y, z)
		batch, err := NewAlphaSweep(alphas)
		if err != nil {
			t.Fatal(err)
		}
		scalar, err := NewAlphaSweep(alphas)
		if err != nil {
			t.Fatal(err)
		}
		check := func(at int) {
			got, want := batch.Reports(), scalar.Reports()
			for i := range want {
				if !sameBits(got[i], want[i]) {
					t.Fatalf("after %d samples, α[%d]=%v:\nbatch  %+v\nscalar %+v", at, i, alphas[i], got[i], want[i])
				}
			}
		}
		size := 1 + int(batchSel)
		for lo := 0; lo < len(pers); lo += size {
			hi := min(lo+size, len(pers))
			batch.AddInROIBatch(pers[lo:hi], cond[lo:hi], ref[lo:hi], inv[lo:hi])
			for i := lo; i < hi; i++ {
				scalar.addInROIScalar(pers[i], cond[i], ref[i], inv[i])
			}
			if lo == 0 {
				batch.AddOutsideROI(3)
				scalar.AddOutsideROI(3)
				check(hi)
			}
		}
		check(len(pers))
	})
}
