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
	if err := summarise(&out, filepath.Join(dir, "spec.json"), dir); err != nil {
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

func ftoa(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
