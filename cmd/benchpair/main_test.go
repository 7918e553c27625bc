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
	if err := summarise(&out, filepath.Join(dir, "spec.json"), nil, dir); err != nil {
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
		if err := summarise(&out, spec, c.only, pairs); err != nil {
			t.Fatal(err)
		}
		for _, want := range c.want {
			if !strings.Contains(out.String(), want) {
				t.Errorf("-workloads %q: summary lacks %q:\n%s", c.only, want, out.String())
			}
		}
	}
	var out strings.Builder
	if err := summarise(&out, spec, []string{"w", "x"}, pairs); err == nil {
		t.Error("-workloads naming an undeclared workload was accepted")
	}
}

func ftoa(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
