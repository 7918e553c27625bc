package main

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.25, 1.75}, {0.5, 2.5}, {1, 4}} {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("quantile(%v, %g) = %g, want %g", xs, c.q, got, c.want)
		}
	}
}

// TestSummarise: two pairs, one metric of each direction; a run missing a
// workload counts as failed and drops out of that pair.
func TestSummarise(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("spec.json", `{"workloads":[{"name":"w"},{"name":"v"}],"end_to_end":[
		{"name":"tps","unit":"1/s","better":"higher"},{"name":"setup_s","unit":"s","better":"lower"}]}`)
	run := func(tps, setup float64) string {
		return `{"w":{"correct":true,"failed":0,"metrics":{"tps":{"value":` + ftoa(tps) + `},"setup_s":{"value":` + ftoa(setup) + `}}}}`
	}
	write("parent_1.json", run(100, 0.010))
	write("change_1.json", run(150, 0.012))
	write("parent_2.json", run(110, 0.011))
	write("change_2.json", run(140, 0.009))
	var out strings.Builder
	if _, err := summarise(&out, filepath.Join(dir, "spec.json"), nil, dir); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		"2 pairs",
		"| w | tps | 105 [102.5–107.5] | 145 [142.5–147.5] | +38.1 % | 2/2 |",
		"| w | setup_s | 10.50 ms [10.25 ms–10.75 ms] | 10.50 ms [9.75 ms–11.25 ms] | +0.0 % | 1/2 |",
		"failed or missing runs: parent 2/4, change 2/4",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("summary lacks %q:\n%s", want, got)
		}
	}
}

// TestMergeThenSummarise: per-workload run outputs folded into per-side
// files read as `run.sh all` output does. The last JSON line of a run's
// output is its result; a run with none stays out of the file and counts
// as failed; -workloads limits the table and the failure count.
func TestMergeThenSummarise(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	spec := write("spec.json", `{"workloads":[{"name":"w"},{"name":"v"},{"name":"u"}],"end_to_end":[
		{"name":"tps","unit":"1/s","better":"higher"}]}`)
	line := func(tps float64) string {
		return `{"correct":true,"failed":0,"metrics":{"tps":{"value":` + ftoa(tps) + `}}}`
	}
	pairs := filepath.Join(dir, "pairs")
	if err := os.Mkdir(pairs, 0o755); err != nil {
		t.Fatal(err)
	}
	for i, r := range []struct {
		side, workload, output string
	}{
		{"parent_1", "w", "warm-up\n" + line(1) + "\nmetric lines\n" + line(100) + "\n"},
		{"change_1", "w", line(120) + "\n"},
		{"parent_1", "v", line(50) + "\n"},
		{"change_1", "v", "panic: the run died\n"},
	} {
		out := write("run"+strconv.Itoa(i)+".txt", r.output)
		if err := merge(filepath.Join(pairs, r.side+".json"), r.workload, out); err != nil {
			t.Fatal(err)
		}
	}
	var all results
	if err := readJSON(filepath.Join(pairs, "parent_1.json"), &all); err != nil {
		t.Fatal(err)
	}
	if len(all) != 2 || all["w"].Metrics["tps"].Value != 100 || all["v"].Metrics["tps"].Value != 50 {
		t.Fatalf("merged parent file %+v, want w at 100 and v at 50", all)
	}
	for _, c := range []struct {
		only []string
		want []string
	}{
		{[]string{"w", "v"}, []string{"1 pairs", "| w | tps | 100 [100–100] | 120 [120–120] | +20.0 % | 1/1 |",
			"failed or missing runs: parent 0/2, change 1/2"}},
		{nil, []string{"failed or missing runs: parent 1/3, change 2/3"}},
	} {
		var out strings.Builder
		if _, err := summarise(&out, spec, c.only, pairs); err != nil {
			t.Fatal(err)
		}
		for _, want := range c.want {
			if !strings.Contains(out.String(), want) {
				t.Errorf("-workloads %q: summary lacks %q:\n%s", c.only, want, out.String())
			}
		}
	}
	var out strings.Builder
	if _, err := summarise(&out, spec, []string{"w", "x"}, pairs); err == nil {
		t.Error("-workloads naming an undeclared workload was accepted")
	}
}

type verdictCase struct {
	name   string
	ps, cs []float64
	higher bool
	want   string
}

func checkVerdicts(t *testing.T, cases []verdictCase) {
	t.Helper()
	for _, c := range cases {
		if got := verdict(c.ps, c.cs, c.higher, 0.1); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

// TestVerdictOKAndImprovement: against a 10 % bound, a median inside the
// bound or better in either direction reads ok.
func TestVerdictOKAndImprovement(t *testing.T) {
	checkVerdicts(t, []verdictCase{
		{"inside the bound", []float64{100, 101, 102}, []float64{95, 96, 97}, true, "ok"},
		{"higher throughput", []float64{100, 101, 102}, []float64{120, 121, 122}, true, "ok"},
		{"lower latency", []float64{10, 10, 10}, []float64{8, 8.5, 9}, false, "ok"},
	})
}

// TestVerdictFlagsWorse: a median past the bound reads worse in both
// directions, however spread the parent is.
func TestVerdictFlagsWorse(t *testing.T) {
	checkVerdicts(t, []verdictCase{
		{"worse throughput", []float64{100, 101, 102}, []float64{85, 88, 90}, true, "worse"},
		{"worse latency", []float64{10, 10, 10}, []float64{11, 11.5, 12}, false, "worse"},
		{"spread parent, halved throughput", []float64{80, 100, 120}, []float64{40, 50, 60}, true, "worse"},
	})
}

// TestVerdictSpreadParentUnresolved: a parent whose quartiles lie further
// apart than the bound cannot pass a change inside the bound as ok, unless
// every change run beats every parent run.
func TestVerdictSpreadParentUnresolved(t *testing.T) {
	checkVerdicts(t, []verdictCase{
		{"parent too spread", []float64{80, 100, 120}, []float64{79, 100, 121}, true, "unresolved"},
		{"spread but every change run better", []float64{80, 100, 120}, []float64{7, 8, 9}, false, "ok"},
	})
}

// TestSpreadMedianAndQuartiles: the table prints the median of an odd and
// an even number of runs with the quartiles around it, and seconds below
// one as milliseconds.
func TestSpreadMedianAndQuartiles(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		unit string
		want string
	}{
		{[]float64{3, 1, 2}, "1/s", "2 [1.5–2.5]"},
		{[]float64{4, 1, 2, 3}, "1/s", "2.5 [1.75–3.25]"},
		{[]float64{100}, "1/s", "100 [100–100]"},
		{[]float64{0.010, 0.012, 0.011}, "s", "11.00 ms [10.50 ms–11.50 ms]"},
	} {
		if got := spread(c.xs, c.unit); got != c.want {
			t.Errorf("spread(%v, %q) = %q, want %q", c.xs, c.unit, got, c.want)
		}
	}
}

type summariseCase struct {
	name           string
	parent, change []string
	pass           bool
	want           string
}

// checkSummaries runs summarise over one pair directory per case, with one
// workload w and one metric tps bounded at 10 %.
func checkSummaries(t *testing.T, cases []summariseCase) {
	t.Helper()
	for _, c := range cases {
		dir := t.TempDir()
		write := func(name, body string) {
			if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		write("spec.json", `{"workloads":[{"name":"w"}],"end_to_end":[
			{"name":"tps","unit":"1/s","better":"higher","bound":0.1}]}`)
		for i := range c.parent {
			write("parent_"+strconv.Itoa(i+1)+".json", c.parent[i])
			write("change_"+strconv.Itoa(i+1)+".json", c.change[i])
		}
		var out strings.Builder
		pass, err := summarise(&out, filepath.Join(dir, "spec.json"), nil, dir)
		if err != nil {
			t.Fatal(err)
		}
		if pass != c.pass || !strings.Contains(out.String(), c.want) {
			t.Errorf("%s: pass %v, want %v, and the summary should contain %q:\n%s", c.name, pass, c.pass, c.want, out.String())
		}
	}
}

func summaryLine(tps float64, failed int) string {
	return `{"w":{"correct":true,"failed":` + strconv.Itoa(failed) + `,"metrics":{"tps":{"value":` + ftoa(tps) + `}}}}`
}

// TestSummariseVerdictTable: each row carries its verdict, and only a
// worse row fails the change; an unresolved one does not.
func TestSummariseVerdictTable(t *testing.T) {
	line := summaryLine
	checkSummaries(t, []summariseCase{
		{"ok", []string{line(100, 0), line(102, 0)}, []string{line(99, 0), line(101, 0)}, true,
			"| w | tps | 101 [100.5–101.5] | 100 [99.5–100.5] | -1.0 % | 0/2 | ok |"},
		{"unresolved", []string{line(60, 0), line(140, 0)}, []string{line(100, 0), line(100, 0)}, true,
			"| 1/2 | unresolved |"},
		{"worse", []string{line(100, 0), line(102, 0)}, []string{line(80, 0), line(81, 0)}, false,
			"verdict: 1 row(s) worse than the bound"},
	})
}

// TestSummariseFailsOnMissingRuns: a change with more failed or missing
// runs than the parent fails, even with no row worse.
func TestSummariseFailsOnMissingRuns(t *testing.T) {
	line := summaryLine
	checkSummaries(t, []summariseCase{
		{"more failed runs", []string{line(100, 0), line(102, 0)}, []string{line(100, 0), line(102, 3)}, false,
			"verdict: the change failed more runs than the parent"},
		{"missing run", []string{line(100, 0), line(102, 0)}, []string{line(100, 0), `{}`}, false,
			"failed or missing runs: parent 0/2, change 1/2"},
		{"as many failed runs", []string{line(100, 1), line(102, 0)}, []string{line(100, 0), line(102, 1)}, true,
			"verdict: no row worse than the bound"},
	})
}

func ftoa(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
