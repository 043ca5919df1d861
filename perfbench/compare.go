package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"text/tabwriter"
)

// run is one benchmark invocation's output, read back from a file.
type run struct {
	workload string
	time     string
	metrics  map[string]float64
}

// readRun parses a file holding one run's standard output: a record line
// followed by the result line.
func readRun(path string) (*run, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	r := &run{metrics: map[string]float64{}}
	var trace bool
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	var last string
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if !strings.HasPrefix(line, "{") {
			continue
		}
		last = line
		var rec struct {
			Record *struct {
				Workload string `json:"workload"`
				Trace    bool   `json:"trace"`
				Env      struct {
					Time string `json:"time"`
				} `json:"env"`
			} `json:"record"`
		}
		if json.Unmarshal([]byte(line), &rec) == nil && rec.Record != nil {
			r.workload, trace, r.time = rec.Record.Workload, rec.Record.Trace, rec.Record.Env.Time
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	var res struct {
		Correct bool `json:"correct"`
		Metrics map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(last), &res); err != nil || res.Metrics == nil {
		return nil, fmt.Errorf("%s: no result line", path)
	}
	if r.workload == "" || trace || !res.Correct {
		return nil, nil // not an untraced, correct run: nothing to compare
	}
	for k, v := range res.Metrics {
		r.metrics[k] = v.Value
	}
	return r, nil
}

// readRuns reads every run under the given files or directories.
func readRuns(args []string) ([]*run, error) {
	var files []string
	for _, a := range args {
		st, err := os.Stat(a)
		if err != nil {
			return nil, err
		}
		if !st.IsDir() {
			files = append(files, a)
			continue
		}
		entries, err := os.ReadDir(a)
		if err != nil {
			return nil, err
		}
		for _, e := range entries {
			if !e.IsDir() {
				files = append(files, filepath.Join(a, e.Name()))
			}
		}
	}
	var runs []*run
	for _, f := range files {
		r, err := readRun(f)
		if err != nil {
			return nil, err
		}
		if r != nil {
			runs = append(runs, r)
		}
	}
	// Pair runs in the order they were made.
	sort.SliceStable(runs, func(i, j int) bool { return runs[i].time < runs[j].time })
	return runs, nil
}

// benchSpec is the part of BENCHMARK.json the comparison needs.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// quartiles returns Python's statistics.quantiles(xs, n=4) (the
// "exclusive" method), the rule the acceptance spreads are computed by.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	d := sortedCopy(xs)
	if len(d) == 1 {
		return d[0], d[0], d[0]
	}
	m := len(d) + 1
	q := func(i int) float64 {
		j := min(max(i*m/4, 1), len(d)-1)
		delta := float64(i*m - j*4)
		return (d[j-1]*(4-delta) + d[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}

// verdict classifies a change against the parent for one metric. delta is
// the relative change of the medians, signed so that positive is worse.
// A move within the bound is unchanged; beyond it, the verdict needs the
// two interquartile ranges apart and the alternating pairs to agree
// three times in four, or it is unresolved.
func verdict(delta, bound float64, separated bool, wins, pairs int) string {
	switch {
	case pairs < 3:
		return "unresolved"
	case math.Abs(delta) <= bound:
		return "unchanged"
	case delta > 0 && separated && 4*wins <= pairs:
		return "worse"
	case delta < 0 && separated && 4*wins >= 3*pairs:
		return "improved"
	default:
		return "unresolved"
	}
}

// compareMain implements `perfbench compare PARENT CHANGE`: each side is
// a directory (or file) of saved run outputs.
func compareMain(root string, args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare PARENT_RUNS CHANGE_RUNS (directories of saved run outputs)")
		return 2
	}
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench compare:", err)
		return 2
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench compare: BENCHMARK.json:", err)
		return 2
	}
	parent, err := readRuns(args[:1])
	if err == nil {
		var change []*run
		if change, err = readRuns(args[1:]); err == nil {
			printComparison(spec, parent, change)
			return 0
		}
	}
	fmt.Fprintln(os.Stderr, "perfbench compare:", err)
	return 1
}

// values returns the metric's value from each run that reported it.
func values(runs []*run, name string) []float64 {
	var out []float64
	for _, r := range runs {
		if v, ok := r.metrics[name]; ok {
			out = append(out, v)
		}
	}
	return out
}

func printComparison(spec benchSpec, parent, change []*run) {
	byWorkload := func(runs []*run) map[string][]*run {
		m := map[string][]*run{}
		for _, r := range runs {
			m[r.workload] = append(m[r.workload], r)
		}
		return m
	}
	pw, cw := byWorkload(parent), byWorkload(change)
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tparent median [q1, q3] (n)\tchange median [q1, q3] (n)\tchange/parent (base: parent median)\tchange wins\tbound\tverdict")
	for _, w := range sortedKeys(pw) {
		ps, cs := pw[w], cw[w]
		if len(cs) == 0 {
			continue
		}
		for _, m := range spec.EndToEnd {
			pv, cv := values(ps, m.Name), values(cs, m.Name)
			if len(pv) == 0 || len(cv) == 0 {
				fmt.Fprintf(tw, "%s\t%s\t(%d runs)\t(%d runs)\t\t\t%.2f\tunresolved\n", w, m.Name, len(pv), len(cv), m.Bound)
				continue
			}
			p1, p2, p3 := quartiles(pv)
			c1, c2, c3 := quartiles(cv)
			sign := 1.0
			if m.Better == "higher" {
				sign = -1
			}
			delta := sign * (c2/p2 - 1)
			pairs, wins := min(len(pv), len(cv)), 0
			for i := range pairs {
				if sign*(cv[i]-pv[i]) < 0 {
					wins++
				}
			}
			separated := c1 > p3 || c3 < p1
			fmt.Fprintf(tw, "%s\t%s\t%.4g [%.4g, %.4g] (%d) %s\t%.4g [%.4g, %.4g] (%d) %s\t%.3f (base %.4g %s)\t%d/%d\t%.2f\t%s\n",
				w, m.Name, p2, p1, p3, len(pv), m.Unit, c2, c1, c3, len(cv), m.Unit,
				c2/p2, p2, m.Unit, wins, pairs, m.Bound, verdict(delta, m.Bound, separated, wins, pairs))
		}
	}
	tw.Flush()
}
