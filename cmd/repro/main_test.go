package main

import (
	"bytes"
	"encoding/csv"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// timing matches the "(N.Ns)" wall-clock line that closes each section.
var timing = regexp.MustCompile(`(?m)^\([0-9.]*s\)\n`)

// runCLI runs the command in-process and returns its exit code, its
// stdout with the timing lines removed, and its stderr.
func runCLI(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var out, errOut bytes.Buffer
	code := cli(args, &out, &errOut)
	return code, timing.ReplaceAllString(out.String(), ""), errOut.String()
}

// TestGoldenQuick pins the default quick-scale output byte for byte.
// testdata/quick.golden is the output of
// `go run ./cmd/repro -quick | grep -v '^([0-9.]*s)$'`.
func TestGoldenQuick(t *testing.T) {
	want, err := os.ReadFile("testdata/quick.golden")
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []string{"1", "3"} {
		code, got, stderr := runCLI(t, "-quick", "-workers", workers)
		if code != 0 {
			t.Fatalf("workers %s: exit %d: %s", workers, code, stderr)
		}
		if got != string(want) {
			t.Errorf("workers %s: output differs from testdata/quick.golden:\n%s", workers, got)
		}
	}
}

// sectionBodies splits the output, up to the closing store line, into
// section title → body.
func sectionBodies(out string) map[string]string {
	bodies := map[string]string{}
	parts := strings.Split(out[:strings.LastIndex(out, "experiment store:")], "==== ")
	for _, p := range parts[1:] {
		title, body, _ := strings.Cut(p, " ====\n")
		bodies[title] = body
	}
	return bodies
}

// TestOptInSections runs the two sections the default run (pinned by
// the golden file) leaves out.
func TestOptInSections(t *testing.T) {
	code, out, stderr := runCLI(t, "-quick", "-only", "fig5,profile", "-n", "24", "-model", "fixed-q16")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	bodies := sectionBodies(out)
	if len(bodies) != 2 {
		t.Fatalf("ran %d sections, want 2:\n%s", len(bodies), out)
	}
	prof := bodies["Extension: diurnal error profile at N=24 (guideline parameters)"]
	for _, site := range []string{"SPMD", "NPCS"} {
		if !strings.Contains(prof, site+" (MAPE per slot of day)") {
			t.Errorf("profile has no %s chart:\n%s", site, prof)
		}
	}
	fig5 := bodies["Fig. 5: state machine at N=24, fixed-q16 model — first two sampling periods"]
	if strings.Count(fig5, "deep-sleep") != 2 || !strings.Contains(fig5, "full-day totals: sleep") {
		t.Errorf("fig5 timeline incomplete:\n%s", fig5)
	}
}

// TestCSV checks that every table section prints well-formed CSV with
// the expected header-plus-rows count per table, and that chart-only
// sections print nothing.
func TestCSV(t *testing.T) {
	code, out, stderr := runCLI(t, "-quick", "-csv", "-only", "table1,fig2,table2,table3,table4,fig7,table5,guidelines,ablation,algorithms,table6,daytype,robustness,seasonal,memory,profile,fig5")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	// Quick scale: 2 sites × 3 rates, 4 values of D, 5 fault scenarios.
	want := map[string][]int{
		"table1":     {7},
		"fig2":       nil,
		"table2":     {3},
		"table3":     {7},
		"table4":     {8},
		"fig7":       {5},
		"table5":     {7},
		"guidelines": {3, 3},
		"ablation":   {5},
		"algorithms": {5},
		"table6":     {7},
		"daytype":    {3},
		"robustness": {11},
		"seasonal":   {3},
		"memory":     {6},
		"profile":    nil,
		"fig5":       {9},
	}
	bodies := sectionBodies(out)
	if len(bodies) != len(sections) {
		t.Fatalf("ran %d sections, want %d", len(bodies), len(sections))
	}
	title := strings.NewReplacer("{N}", "48", "{model}", "soft-float", "{site}", "SPMD")
	for _, s := range sections {
		body, ok := bodies[title.Replace(s.title)]
		if !ok {
			t.Errorf("%s: section missing", s.name)
			continue
		}
		var rows []int
		for _, block := range strings.Split(strings.TrimSpace(body), "\n\n") {
			if block == "" {
				continue
			}
			records, err := csv.NewReader(strings.NewReader(block)).ReadAll()
			if err != nil {
				t.Errorf("%s: bad CSV: %v\n%s", s.name, err, block)
				continue
			}
			rows = append(rows, len(records))
		}
		if !slices.Equal(rows, want[s.name]) {
			t.Errorf("%s: CSV rows per table %v, want %v\n%s", s.name, rows, want[s.name], body)
		}
	}
}

func TestOnlyRunsNamedSections(t *testing.T) {
	code, out, stderr := runCLI(t, "-quick", "-only", "table2, table1,table2")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	if got := strings.Count(out, "==== "); got != 2 {
		t.Fatalf("ran %d sections, want 2:\n%s", got, out)
	}
	if i, j := strings.Index(out, "==== Table I:"), strings.Index(out, "==== Table II:"); i < 0 || j < i {
		t.Errorf("want table1 then table2, in table order:\n%s", out)
	}
}

func TestUnknownSection(t *testing.T) {
	code, out, stderr := runCLI(t, "-quick", "-only", "table2,nope")
	if code != 2 {
		t.Errorf("exit %d, want 2", code)
	}
	if out != "" {
		t.Errorf("ran sections despite the unknown name:\n%s", out)
	}
	if !strings.Contains(stderr, `"nope"`) || !strings.Contains(stderr, "table1,fig2,") || !strings.Contains(stderr, ",profile,fig5") {
		t.Errorf("stderr does not name the section and the valid names: %q", stderr)
	}
}

func TestPickModel(t *testing.T) {
	m, err := pickModel("soft-float")
	if err != nil || m.Name != "soft-float" {
		t.Errorf("soft-float: %v %v", m.Name, err)
	}
	m, err = pickModel("fixed-q16")
	if err != nil || m.Name != "fixed-q16" {
		t.Errorf("fixed-q16: %v %v", m.Name, err)
	}
	if _, err := pickModel("nope"); err == nil {
		t.Error("unknown model accepted")
	}
}

// TestRunSections runs the hardware-cost sections under both models.
func TestRunSections(t *testing.T) {
	if code, _, stderr := runCLI(t, "-quick", "-only", "table4", "-model", "soft-float"); code != 0 {
		t.Errorf("tables: %s", stderr)
	}
	if code, _, stderr := runCLI(t, "-quick", "-only", "fig5", "-model", "fixed-q16", "-n", "24"); code != 0 {
		t.Errorf("trace: %s", stderr)
	}
	if code, _, stderr := runCLI(t, "-quick", "-only", "ablation"); code != 0 {
		t.Errorf("sweep: %s", stderr)
	}
	if code, _, stderr := runCLI(t, "-quick", "-only", "memory"); code != 0 {
		t.Errorf("memory: %s", stderr)
	}
	if code, _, _ := runCLI(t, "-quick", "-model", "nope"); code == 0 {
		t.Error("unknown model accepted by run")
	}
}
