// Command perfbench is solarpred's seeded, layer-attributed benchmark.
// One invocation runs one workload for a fixed measuring window, checks
// every output it produced, and prints one JSON result line last:
//
//	perfbench --workload serve-hot --seed 7 --seconds 10 --trace 0
//	perfbench compare parent/ change/
//
// With --trace 0 the result carries the end-to-end metrics a user of the
// system sees; with --trace 1 the workload is re-run with spans around
// the calls into each layer's public functions and the result carries the
// per-layer metrics instead. README.md in this directory documents every
// workload and metric; BENCHMARK.json at the repository root declares
// them with their bounds.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"
)

// workload is one named benchmark scenario. run measures for the given
// window and returns what it saw; trace selects the per-layer variant.
type workload struct {
	name string
	run  func(b *bench) error
}

var workloads = []workload{
	{"serve-hot", runServeHot},
	{"serve-churn", runServeChurn},
	{"fleet", runFleet},
	{"repro-full", runRepro},
}

// bench is the state one run threads through its workload: the inputs
// fixed on the command line, the operation and failure counters, the
// metrics it fills in, the checks it made and the shape it recorded.
type bench struct {
	root    string
	seed    uint64
	seconds float64
	trace   bool
	tr      *tracer // set on traced runs

	attempted int64
	failed    int64
	checks    []check
	metrics   map[string]float64
	shape     map[string]any
	notes     []string
}

// check tallies one named output check over a run.
type check struct {
	Name   string `json:"name"`
	Passed int    `json:"passed"`
	Failed int    `json:"failed"`
	// Detail describes the first failure.
	Detail string `json:"detail,omitempty"`
}

// set records a metric value by its registered name.
func (b *bench) set(name string, v float64) {
	if _, ok := unitOf[name]; !ok {
		panic("perfbench: unregistered metric " + name)
	}
	b.metrics[name] = v
}

// fail records a failed operation (a refused or erroring request, or an
// output that did not match its reference).
func (b *bench) fail(n int64) { b.failed += n }

// verify records one output check; a failed check counts as one failed
// operation so it shows in failed/attempted.
func (b *bench) verify(name string, ok bool, format string, args ...any) {
	c := b.checkNamed(name)
	b.attempted++
	if ok {
		c.Passed++
		return
	}
	c.Failed++
	b.failed++
	if c.Detail == "" {
		c.Detail = fmt.Sprintf(format, args...)
	}
	fmt.Fprintf(os.Stderr, "perfbench: check %s failed: %s\n", name, fmt.Sprintf(format, args...))
}

// tally adds passed and failed counts to a named check whose operations
// are already counted in attempted and failed.
func (b *bench) tally(name string, passed, failed int64, detail string) {
	c := b.checkNamed(name)
	c.Passed += int(passed)
	c.Failed += int(failed)
	if failed > 0 && c.Detail == "" {
		c.Detail = detail
	}
}

// checkNamed returns the named check, adding it on first use.
func (b *bench) checkNamed(name string) *check {
	i := slices.IndexFunc(b.checks, func(c check) bool { return c.Name == name })
	if i < 0 {
		b.checks = append(b.checks, check{Name: name})
		i = len(b.checks) - 1
	}
	return &b.checks[i]
}

// note prints a human-readable line on standard error and keeps it for
// the run record.
func (b *bench) note(format string, args ...any) {
	s := fmt.Sprintf(format, args...)
	b.notes = append(b.notes, s)
	fmt.Fprintln(os.Stderr, "perfbench:", s)
}

// deadline returns the end of a phase that takes the given share of the
// measuring window, starting now.
func (b *bench) deadline(share float64) time.Time {
	return time.Now().Add(time.Duration(share * b.seconds * float64(time.Second)))
}

// accountingSlack is how much of the untraced time the traced layers may
// leave unexplained beyond the tracing overhead itself.
const accountingSlack = 0.1

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// main takes an optional leading --root (the checkout root, which run.sh
// passes), then either compare and its arguments or a run's flags.
func main() {
	args, root := os.Args[1:], "."
	if len(args) >= 2 && args[0] == "--root" {
		root, args = args[1], args[2:]
	}
	if len(args) > 0 && args[0] == "compare" {
		os.Exit(compareMain(root, args[1:]))
	}
	os.Exit(benchMain(root, args))
}

func benchMain(root string, args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: serve-hot, serve-churn, fleet or repro-full")
	seed := fs.Uint64("seed", 1, "seed the workload's inputs derive from")
	seconds := fs.Float64("seconds", 10, "measuring window in seconds")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	if _, err := os.Stat(root + "/internal/experiments/testdata/golden"); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s is not a solarpred checkout: %v\n", root, err)
		return 2
	}
	if err := checkDeclared(root); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	b := &bench{
		root:    root,
		seed:    *seed,
		seconds: *seconds,
		trace:   *trace == 1,
		metrics: map[string]float64{},
		shape:   map[string]any{},
	}
	if b.trace {
		b.tr = newTracer()
	}
	if err := w.run(b); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}

	names := endToEnd
	if b.trace {
		names = perLayer
		// The traced layers must account for the untraced operation: what
		// they leave unexplained may not exceed the tracing overhead by
		// more than accountingSlack of the untraced time.
		over, gap := b.metrics["trace.overhead_frac"], b.metrics["trace.unaccounted_frac"]
		b.verify("trace.accounting", math.Abs(gap) <= math.Abs(over)+accountingSlack,
			"layers leave %.1f%% of the untraced time unexplained, tracing overhead %.1f%%", 100*gap, 100*over)
		b.set("error_frac", ratio(float64(b.failed), float64(b.attempted)))
	}
	out := result{Attempted: b.attempted, Failed: b.failed, Metrics: map[string]metricValue{}}
	for _, m := range names {
		v, ok := b.metrics[m.name]
		if !ok && !b.trace {
			fmt.Fprintf(os.Stderr, "perfbench: %s did not measure %s\n", w.name, m.name)
			return 1
		}
		// A per-layer metric the workload never set belongs to a layer
		// this workload does not exercise; it reads 0.
		out.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
	}
	out.Correct = b.failed == 0
	for _, c := range b.checks {
		out.Correct = out.Correct && c.Failed == 0
	}
	if out.Attempted < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: no operation attempted")
		return 1
	}

	if b.tr != nil {
		path, err := b.tr.write(b.root, w.name, b.seed)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
			return 1
		}
		b.shape["spans_file"] = path
	}
	record := map[string]any{
		"workload": w.name,
		"seed":     b.seed,
		"seconds":  b.seconds,
		"trace":    b.trace,
		"env":      environment(b.root),
		"shape":    b.shape,
		"checks":   b.checks,
		"notes":    b.notes,
	}
	printJSON(map[string]any{"record": record})
	printJSON(out)
	return 0
}

func printJSON(v any) {
	data, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	fmt.Println(string(data))
}

// sortedKeys returns a map's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// environment records what the numbers were measured on.
func environment(root string) map[string]any {
	cpu := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	commit, dirty := gitState(root)
	return map[string]any{
		"cpu":           cpu,
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"go":            runtime.Version(),
		"commit":        commit,
		"dirty":         dirty,
		"source_sha256": sourceDigest(root),
		"time":          time.Now().UTC().Format(time.RFC3339),
	}
}
