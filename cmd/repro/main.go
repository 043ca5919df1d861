// Command repro regenerates every table and figure of the paper, and the
// extensions built on it, from one shared experiment store. Each artefact
// is one named section, printed in this order:
//
//	table1      Table I: data sets
//	fig2        Fig. 2: six days of solar energy
//	table2      Table II: error-function comparison at N=-n
//	table3      Table III: prediction results at every N
//	table4      Table IV and Fig. 6: hardware energy model (-model)
//	fig7        Fig. 7: MAPE vs D at N=-n
//	table5      Table V: clairvoyant dynamic parameter selection
//	guidelines  Section IV-B tuning guidelines, with the baseline predictors
//	ablation    soft-float vs fixed-point prediction cost per K
//	algorithms  accuracy vs computation across algorithms
//	table6      Table VI: realizable online parameter selection
//	daytype     MAPE by realised weather type
//	robustness  sensor-fault robustness
//	seasonal    month-by-month MAPE
//	memory      predictor RAM on the MSP430F1611
//	profile     diurnal error profile (only when named in -only)
//	fig5        Fig. 5 state-machine timeline (only when named in -only)
//
// Usage:
//
//	repro                          # every default section, full paper scale
//	repro -quick                   # reduced scale, seconds
//	repro -only table2,table3 -csv # two tables as CSV
//	repro -only fig5 -n 24 -model fixed-q16
//	repro -sites SPMD,HSU          # every section on two sites
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"

	"solarpred/internal/core"
	"solarpred/internal/dataset"
	"solarpred/internal/experiments"
	"solarpred/internal/mcu"
	"solarpred/internal/report"
)

// options scopes one run of the sections.
type options struct {
	cfg   experiments.Config
	n     int           // sampling rate of the single-rate sections
	model mcu.CostModel // cost model of table4 and fig5
	// full is the paper-scale configuration; ownSites records that
	// -sites chose the sites, overriding the Table V/VI subset.
	full, ownSites bool
}

// section renders one artefact. Its title may name {N}, {model} and
// {site} (the first site), filled in from the options.
type section struct {
	name, title string
	run         func(o options, w io.Writer, csv bool) error
	optIn       bool // runs only when named in -only
}

var sections = []section{
	{name: "table1", title: "Table I: data sets", run: table1},
	{name: "fig2", title: "Fig. 2: six days of solar energy ({site}-like trace)", run: fig2},
	{name: "table2", title: "Table II: error-function comparison at N={N}", run: table2},
	{name: "table3", title: "Table III: prediction results at different N", run: table3},
	{name: "table4", title: "Table IV and Fig. 6: hardware energy model ({model})", run: table4},
	{name: "fig7", title: "Fig. 7: MAPE vs D at N={N}", run: fig7},
	{name: "table5", title: "Table V: dynamic parameter selection", run: table5},
	{name: "guidelines", title: "Guidelines and baselines at N={N}", run: guidelines},
	{name: "ablation", title: "Ablation: soft-float vs fixed-point prediction cost", run: ablation},
	{name: "algorithms", title: "Extension: accuracy vs computation across algorithms (N={N}, {site}-like site)", run: algorithms},
	{name: "table6", title: "Table VI (extension): realizable online parameter selection", run: table6},
	{name: "daytype", title: "Extension: MAPE by realised weather type at N={N}", run: daytype},
	{name: "robustness", title: "Extension: sensor-fault robustness at N={N} (guideline parameters)", run: robustness},
	{name: "seasonal", title: "Extension: month-by-month MAPE at N={N} (guideline parameters)", run: seasonal},
	{name: "memory", title: "Extension: predictor RAM on the MSP430F1611 (D=10)", run: memory},
	{name: "profile", title: "Extension: diurnal error profile at N={N} (guideline parameters)", run: profile, optIn: true},
	{name: "fig5", title: "Fig. 5: state machine at N={N}, {model} model — first two sampling periods", run: fig5, optIn: true},
}

func main() { os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr)) }

// cli runs the command on args and returns its exit code: 2 for a usage
// error, 1 when a section fails.
func cli(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("repro", flag.ContinueOnError)
	fs.SetOutput(stderr)
	quick := fs.Bool("quick", false, "use the reduced configuration")
	workers := fs.Int("workers", 0, "concurrent (site, N) evaluations per driver (0 = GOMAXPROCS)")
	only := fs.String("only", "", "comma-separated sections to run (default: all but profile and fig5)")
	csv := fs.Bool("csv", false, "print tables as CSV and skip charts")
	n := fs.Int("n", 48, "slots per day for the single-rate sections")
	model := fs.String("model", "soft-float", "cost model for table4 and fig5: soft-float or fixed-q16")
	sites := fs.String("sites", "", "comma-separated sites for every section (default: the configuration's, and the paper's four for Tables V/VI)")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}

	secs, err := pick(*only)
	var o options
	if err == nil {
		o, err = newOptions(*quick, *workers, *n, *model, *sites)
	}
	if err != nil {
		fmt.Fprintln(stderr, "repro:", err)
		return 2
	}
	if err := run(o, secs, stdout, *csv); err != nil {
		fmt.Fprintln(stderr, "repro:", err)
		return 1
	}
	return 0
}

// newOptions builds and validates the run's options from the flags.
func newOptions(quick bool, workers, n int, modelName, sites string) (options, error) {
	cfg := experiments.DefaultConfig()
	if quick {
		cfg = experiments.QuickConfig()
	}
	cfg.Workers = workers
	if sites != "" {
		cfg.Sites = strings.Split(sites, ",")
	}
	if err := cfg.Validate(); err != nil {
		return options{}, err
	}
	model, err := pickModel(modelName)
	if err != nil {
		return options{}, err
	}
	// One experiment store serves every section of the run: each
	// (site, N, space, ref) tuple is grid-searched exactly once, and every
	// later table or figure that needs it reads the cached result.
	cfg.Store = experiments.NewStore(cfg)
	return options{cfg: cfg, n: n, model: model, full: !quick, ownSites: sites != ""}, nil
}

func pickModel(name string) (mcu.CostModel, error) {
	switch name {
	case "soft-float":
		return mcu.SoftFloat, nil
	case "fixed-q16":
		return mcu.FixedQ16, nil
	default:
		return mcu.CostModel{}, fmt.Errorf("unknown cost model %q", name)
	}
}

// pick returns the sections named in only, in table order, or every
// default section when only is empty.
func pick(only string) ([]section, error) {
	names := make([]string, len(sections))
	for i, s := range sections {
		names[i] = s.name
	}
	want := map[string]bool{}
	for _, name := range strings.Split(only, ",") {
		if name = strings.TrimSpace(name); name == "" {
			continue
		}
		if !slices.Contains(names, name) {
			return nil, fmt.Errorf("unknown section %q; valid: %s", name, strings.Join(names, ","))
		}
		want[name] = true
	}
	var out []section
	for _, s := range sections {
		if len(want) == 0 && !s.optIn || want[s.name] {
			out = append(out, s)
		}
	}
	return out, nil
}

func run(o options, secs []section, w io.Writer, csv bool) error {
	fmt.Fprintf(w, "solarpred paper reproduction — sites %v, %d days, warm-up %d\n\n",
		o.cfg.Sites, o.cfg.Days, o.cfg.WarmupDays)
	title := strings.NewReplacer("{N}", strconv.Itoa(o.n), "{model}", o.model.Name, "{site}", o.cfg.Sites[0])
	for _, s := range secs {
		start := time.Now()
		fmt.Fprintf(w, "==== %s ====\n\n", title.Replace(s.title))
		if err := s.run(o, w, csv); err != nil {
			return fmt.Errorf("%s: %w", s.name, err)
		}
		fmt.Fprintf(w, "(%.1fs)\n\n", time.Since(start).Seconds())
	}
	st := o.cfg.Store.Stats()
	fmt.Fprintf(w, "experiment store: grid %d computed / %d served, eval %d/%d, view %d/%d, series %d/%d\n",
		st.Grid.Misses, st.Grid.Hits+st.Grid.Misses,
		st.Eval.Misses, st.Eval.Hits+st.Eval.Misses,
		st.View.Misses, st.View.Hits+st.View.Misses,
		st.Series.Misses, st.Series.Hits+st.Series.Misses)
	return nil
}

// emit prints a table as aligned text, or as CSV, followed by a blank line.
func emit(w io.Writer, t *report.Table, csv bool) {
	s := t.String()
	if csv {
		s = t.CSV()
	}
	fmt.Fprintln(w, s)
}

// paperSubset narrows the configuration to the paper's Table V/VI sites
// at full scale, unless -sites chose the sites.
func (o options) paperSubset() experiments.Config {
	c := o.cfg
	if o.full && !o.ownSites {
		c.Sites = []string{"SPMD", "ECSU", "ORNL", "HSU"}
	}
	return c
}

func table1(_ options, w io.Writer, csv bool) error {
	t := report.NewTable("", "Data Set", "Location", "Observations", "Days", "Resolution")
	for _, r := range dataset.TableI() {
		t.AddRow(r.Name, r.Location, strconv.Itoa(r.Observations), strconv.Itoa(r.Days), r.Resolution)
	}
	emit(w, t, csv)
	return nil
}

func fig2(o options, w io.Writer, csv bool) error {
	if csv {
		return nil
	}
	f, err := experiments.Fig2(o.cfg, o.cfg.Sites[0], 6)
	if err != nil {
		return err
	}
	chart := report.NewChart(fmt.Sprintf("%s days %v (5-minute samples)", f.Site, f.Days), 72, 10)
	chart.Add("power", '*', f.Samples)
	fmt.Fprintln(w, chart.String())
	return nil
}

func table2(o options, w io.Writer, csv bool) error {
	rows, err := experiments.TableII(o.cfg, o.n)
	if err != nil {
		return err
	}
	t := report.NewTable("", "Data set", "a'", "D'", "K'", "MAPE'", "a", "D", "K", "MAPE")
	for _, r := range rows {
		t.AddRow(r.Site,
			fmt.Sprintf("%.1f", r.PrimeBest.Params.Alpha), strconv.Itoa(r.PrimeBest.Params.D),
			strconv.Itoa(r.PrimeBest.Params.K), report.Percent(r.PrimeError),
			fmt.Sprintf("%.1f", r.MeanBest.Params.Alpha), strconv.Itoa(r.MeanBest.Params.D),
			strconv.Itoa(r.MeanBest.Params.K), report.Percent(r.MeanError))
	}
	emit(w, t, csv)
	return nil
}

func table3(o options, w io.Writer, csv bool) error {
	rows, err := experiments.TableIII(o.cfg)
	if err != nil {
		return err
	}
	t := report.NewTable("", "Data set", "N", "a", "D", "K", "MAPE", "MAPE@K=2")
	for _, r := range rows {
		if r.Degenerate {
			t.AddRow(r.Site, strconv.Itoa(r.N), "1.0", "n/a", "n/a", "0*", "0*")
			continue
		}
		k2 := "n/a"
		if !math.IsNaN(r.MAPEAtK2) {
			k2 = report.Percent(r.MAPEAtK2)
		}
		t.AddRow(r.Site, strconv.Itoa(r.N),
			fmt.Sprintf("%.1f", r.Best.Params.Alpha), strconv.Itoa(r.Best.Params.D),
			strconv.Itoa(r.Best.Params.K), report.Percent(r.Best.Report.MAPE), k2)
	}
	emit(w, t, csv)
	if !csv {
		fmt.Fprintln(w, "* slot length equals trace resolution: prediction exact with a=1")
		fmt.Fprintln(w)
	}
	return nil
}

func table4(o options, w io.Writer, csv bool) error {
	rows, err := mcu.TableIV(o.model)
	if err != nil {
		return err
	}
	t := report.NewTable("", "Hardware Activity", "Energy/Cycle")
	for _, r := range rows {
		if r.PerDay {
			t.AddRow(r.Activity, fmt.Sprintf("%.2f mJ per day", r.EnergyJ*1e3))
		} else {
			t.AddRow(r.Activity, fmt.Sprintf("%.1f uJ", r.EnergyJ*1e6))
		}
	}
	emit(w, t, csv)
	ns, fractions, err := mcu.Fig6(o.model)
	if err != nil || csv {
		return err
	}
	labels := make([]string, len(ns))
	vals := make([]float64, len(ns))
	for i := range ns {
		labels[i] = fmt.Sprintf("N=%d", ns[i])
		vals[i] = fractions[i] * 100
	}
	fmt.Fprintln(w, report.Bars("Fig. 6: overhead vs sleep energy", labels, vals, "%", 40))
	return nil
}

// fig7 draws the MAPE-vs-D curves, or prints their data as CSV.
func fig7(o options, w io.Writer, csv bool) error {
	series, err := experiments.Fig7(o.cfg, o.n)
	if err != nil {
		return err
	}
	ds := o.cfg.Space.Ds
	if csv {
		headers := []string{"D"}
		for _, s := range series {
			headers = append(headers, s.Site)
		}
		t := report.NewTable("", headers...)
		for di, d := range ds {
			row := []string{strconv.Itoa(d)}
			for _, s := range series {
				row = append(row, report.Percent(s.MAPEs[di]))
			}
			t.AddRow(row...)
		}
		emit(w, t, csv)
		return nil
	}
	chart := report.NewChart("MAPE vs D", 60, 12)
	markers := []byte{'*', 'o', '+', 'x', '#', '@'}
	for i, s := range series {
		chart.Add(s.Site, markers[i%len(markers)], s.MAPEs)
	}
	chart.XLabel = fmt.Sprintf("D = %d .. %d", ds[0], ds[len(ds)-1])
	fmt.Fprintln(w, chart.String())
	return nil
}

func table5(o options, w io.Writer, csv bool) error {
	rows, err := experiments.TableV(o.paperSubset())
	if err != nil {
		return err
	}
	t := report.NewTable("", "Data set", "N", "Static", "K+a", "a(K dyn)", "K only", "K(a dyn)", "a only")
	for _, r := range rows {
		if r.Degenerate {
			t.AddRow(r.Site, strconv.Itoa(r.N), "0.00%", "0.00%", "1.0", "0.00%", "n/a", "0.00%")
			continue
		}
		t.AddRow(r.Site, strconv.Itoa(r.N),
			report.Percent(r.Static), report.Percent(r.Both),
			fmt.Sprintf("%.1f", r.KOnlyAlpha), report.Percent(r.KOnly),
			strconv.Itoa(r.AlphaOnlyK), report.Percent(r.AlphaOnly))
	}
	emit(w, t, csv)
	return nil
}

// guidelines compares the Section IV-B guideline parameters with the
// exhaustive optimum, then WCMA with the baseline predictors.
func guidelines(o options, w io.Writer, csv bool) error {
	gs, err := experiments.Guidelines(o.cfg, o.n)
	if err != nil {
		return err
	}
	p := experiments.GuidelineParams(o.n)
	tg := report.NewTable(fmt.Sprintf("Guideline a=%.1f D=%d K=%d vs optimum", p.Alpha, p.D, p.K),
		"Data set", "Optimum", "Guideline", "Penalty")
	for _, g := range gs {
		tg.AddRow(g.Site, report.Percent(g.OptimumMAPE), report.Percent(g.GuidelineMAPE),
			fmt.Sprintf("%+.2fpp", g.Penalty*100))
	}
	emit(w, tg, csv)
	bs, err := experiments.Baselines(o.cfg, o.n, []float64{0.1, 0.3, 0.5, 0.7, 0.9})
	if err != nil {
		return err
	}
	tb := report.NewTable("Baselines (MAPE)", "Data set", "WCMA", "EWMA", "b", "Persist", "Prev-day", "SlotAR")
	for _, b := range bs {
		tb.AddRow(b.Site, report.Percent(b.WCMA), report.Percent(b.EWMA),
			fmt.Sprintf("%.1f", b.EWMABeta), report.Percent(b.Persistence), report.Percent(b.PreviousDay),
			report.Percent(b.SlotAR))
	}
	emit(w, tb, csv)
	return nil
}

func ablation(_ options, w io.Writer, csv bool) error {
	t := report.NewTable("", "K", "soft-float", "fixed-q16", "ratio")
	for _, k := range []int{1, 2, 4, 7} {
		p := core.Params{Alpha: 0.7, D: 20, K: k}
		sf, err := mcu.PredictionEnergyJ(p, mcu.SoftFloat)
		if err != nil {
			return err
		}
		fx, err := mcu.PredictionEnergyJ(p, mcu.FixedQ16)
		if err != nil {
			return err
		}
		t.AddRow(strconv.Itoa(k), fmt.Sprintf("%.2f uJ", sf*1e6),
			fmt.Sprintf("%.2f uJ", fx*1e6), fmt.Sprintf("%.1fx", sf/fx))
	}
	emit(w, t, csv)
	return nil
}

// algorithms sets each predictor's accuracy on the first site against
// its cost per prediction (the theme of the paper's reference [7]).
func algorithms(o options, w io.Writer, csv bool) error {
	costs, err := mcu.AlgorithmCosts(core.Params{Alpha: 0.7, D: 10, K: 2}, mcu.SoftFloat)
	if err != nil {
		return err
	}
	one := o.cfg
	one.Sites = one.Sites[:1]
	bs, err := experiments.Baselines(one, o.n, []float64{0.1, 0.3, 0.5})
	if err != nil {
		return err
	}
	mapeOf := map[string]float64{
		"WCMA (K=2)":  bs[0].WCMA,
		"SlotAR":      bs[0].SlotAR,
		"EWMA":        bs[0].EWMA,
		"persistence": bs[0].Persistence,
	}
	t := report.NewTable("", "algorithm", "MAPE", "cycles/prediction", "energy/prediction")
	for _, c := range costs {
		t.AddRow(c.Name, report.Percent(mapeOf[c.Name]),
			strconv.Itoa(c.Cycles), fmt.Sprintf("%.2f uJ", c.EnergyJ*1e6))
	}
	emit(w, t, csv)
	return nil
}

func table6(o options, w io.Writer, csv bool) error {
	c := o.paperSubset()
	if o.full {
		c.Ns = []int{96, 48, 24}
	}
	rows, err := experiments.TableVI(c)
	if err != nil {
		return err
	}
	t := report.NewTable("", append([]string{"Data set", "N", "Static", "Oracle"}, experiments.PolicyNames()...)...)
	for _, r := range rows {
		if r.Degenerate {
			continue
		}
		cells := []string{r.Site, strconv.Itoa(r.N), report.Percent(r.Static), report.Percent(r.Oracle)}
		for _, p := range r.Policies {
			cells = append(cells, report.Percent(p.Report.MAPE))
		}
		t.AddRow(cells...)
	}
	emit(w, t, csv)
	return nil
}

func daytype(o options, w io.Writer, csv bool) error {
	t := report.NewTable("", "Data set", "clear", "partly", "overcast", "mixed")
	for _, site := range o.cfg.Sites {
		res, err := experiments.ErrorByDayType(o.cfg, site, o.n, experiments.GuidelineParams(o.n))
		if err != nil {
			return err
		}
		t.AddRow(site,
			report.Percent(res.MAPE[0]), report.Percent(res.MAPE[1]),
			report.Percent(res.MAPE[2]), report.Percent(res.MAPE[3]))
	}
	emit(w, t, csv)
	return nil
}

func robustness(o options, w io.Writer, csv bool) error {
	rows, err := experiments.Robustness(o.cfg, o.n)
	if err != nil {
		return err
	}
	t := report.NewTable("", "Data set", "fault", "affected", "clean", "faulty", "degradation")
	for _, r := range rows {
		t.AddRow(r.Site, r.Scenario.Kind.String(),
			fmt.Sprintf("%.2f%%", r.Damage.AffectedFraction()*100),
			report.Percent(r.CleanMAPE), report.Percent(r.FaultyMAPE),
			fmt.Sprintf("%+.2fpp", r.DegradationPoints()*100))
	}
	emit(w, t, csv)
	return nil
}

func seasonal(o options, w io.Writer, csv bool) error {
	t := report.NewTable("", "Data set", "Jan", "Feb", "Mar", "Apr", "May", "Jun",
		"Jul", "Aug", "Sep", "Oct", "Nov", "Dec")
	for _, site := range o.cfg.Sites {
		months, err := experiments.Seasonal(o.cfg, site, o.n, experiments.GuidelineParams(o.n))
		if err != nil {
			return err
		}
		cells := []string{site}
		for _, m := range months {
			if m.Samples == 0 {
				cells = append(cells, "n/a")
			} else {
				cells = append(cells, report.Percent(m.MAPE))
			}
		}
		t.AddRow(cells...)
	}
	emit(w, t, csv)
	return nil
}

func memory(_ options, w io.Writer, csv bool) error {
	rows, err := mcu.MemoryTable(core.Params{Alpha: 0.7, D: 10, K: 2})
	if err != nil {
		return err
	}
	t := report.NewTable("", "N", "bytes", "fits 10KB SRAM", "max D at this N")
	for _, r := range rows {
		fits := "yes"
		if !r.Fits {
			fits = "NO"
		}
		t.AddRow(strconv.Itoa(r.N), strconv.Itoa(r.TotalBytes), fits, strconv.Itoa(r.MaxDAtThisN))
	}
	emit(w, t, csv)
	return nil
}

// profile charts each site's MAPE per slot of day.
func profile(o options, w io.Writer, csv bool) error {
	if csv {
		return nil
	}
	for _, site := range o.cfg.Sites {
		prof, err := experiments.ErrorBySlot(o.cfg, site, o.n, experiments.GuidelineParams(o.n))
		if err != nil {
			return err
		}
		chart := report.NewChart(site+" (MAPE per slot of day)", 60, 10)
		chart.Add("MAPE", '*', prof.MAPE)
		chart.XLabel = "slot 0 (midnight) .. N-1"
		fmt.Fprintln(w, chart.String())
	}
	return nil
}

// fig5 lists the first events of one simulated day of the sampling and
// prediction state machine, then the day's energy per phase.
func fig5(o options, w io.Writer, csv bool) error {
	tl, err := mcu.Simulate(o.n, core.Params{Alpha: 0.7, D: 20, K: 2}, o.model)
	if err != nil {
		return err
	}
	t := report.NewTable("", "t (s)", "phase", "duration", "energy")
	for _, e := range tl.Events[:min(8, len(tl.Events))] {
		t.AddRow(fmt.Sprintf("%.3f", e.StartS), e.Phase.String(),
			fmt.Sprintf("%.6gs", e.Duration), fmt.Sprintf("%.3g J", e.EnergyJ))
	}
	emit(w, t, csv)
	if !csv {
		by := tl.EnergyByPhase()
		fmt.Fprintf(w, "full-day totals: sleep %.1f mJ, vref %.2f mJ, adc %.3f mJ, predict %.3f mJ (total %.1f mJ)\n\n",
			by[mcu.PhaseDeepSleep]*1e3, by[mcu.PhaseVrefSettle]*1e3,
			by[mcu.PhaseADCConvert]*1e3, by[mcu.PhasePredict]*1e3, tl.TotalEnergyJ()*1e3)
	}
	return nil
}
