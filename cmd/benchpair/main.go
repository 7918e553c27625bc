// Command benchpair summarises alternating benchmark pairs: N runs of each
// workload at a parent ref and N in the working tree, collected per side
// and pair as parent_<i>.json and change_<i>.json (i = 1..N) in one
// directory — the object `benchmark/run.sh all` writes, workload -> the
// run's JSON result line. For every workload and end-to-end metric
// BENCHMARK.json declares it prints one markdown row: the parent's and the
// change's median with its quartiles, the change in the median, and in how
// many pairs the change was better, and a verdict against the metric's
// bound:
//
//   - worse: the change's median is worse than the parent's by more than
//     the bound;
//   - unresolved: the parent's interquartile range exceeds the bound times
//     its median, so the parent's own runs spread too widely to tell,
//     unless every change run beat every parent run;
//   - ok otherwise.
//
// It exits 1 when a row is worse, or when the change has more failed or
// missing runs than the parent. `make bench-pair REF=<ref> N=<n>` runs the
// pairs and then this command:
//
//	benchpair -spec BENCHMARK.json [-workloads "a b"] .bench_build/pairs
//
// -workloads limits the table and the failure count to the named
// workloads (default: every workload the spec declares).
//
// The pairs are run one workload at a time, so the two sides of a pair run
// seconds apart rather than minutes; each run's output is folded into its
// side's file with
//
//	benchpair -merge parent_<i>.json -workload NAME RUN_OUTPUT
//
// which stores the last JSON line of RUN_OUTPUT (the output of
// `benchmark/run.sh --workload NAME ...`) under NAME. A run that printed
// no result line leaves its workload out, and the table counts it failed.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
)

// spec is the part of BENCHMARK.json the table needs.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// run is one workload's result line, as benchmark/run.sh all collects it.
type run struct {
	Correct bool  `json:"correct"`
	Failed  int64 `json:"failed"`
	Metrics map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

// results is one `run.sh all` output file: workload -> run.
type results map[string]run

func main() {
	specPath := flag.String("spec", "BENCHMARK.json", "benchmark declaration naming the workloads and end-to-end metrics")
	workloads := flag.String("workloads", "", "space-separated workloads to summarise (default: all in the spec)")
	mergeInto := flag.String("merge", "", "fold the result line of one run's output into this per-side file instead of summarising")
	workload := flag.String("workload", "", "with -merge: the workload the run's output belongs to")
	flag.Parse()
	var err error
	switch {
	case *mergeInto != "" && *workload != "" && flag.NArg() == 1:
		err = merge(*mergeInto, *workload, flag.Arg(0))
	case *mergeInto == "" && flag.NArg() == 1:
		var pass bool
		pass, err = summarise(os.Stdout, *specPath, strings.Fields(*workloads), flag.Arg(0))
		if err == nil && !pass {
			os.Exit(1)
		}
	default:
		fmt.Fprintln(os.Stderr, "usage: benchpair [-spec BENCHMARK.json] [-workloads \"a b\"] DIR\n"+
			"       benchpair -merge FILE -workload NAME RUN_OUTPUT")
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchpair:", err)
		os.Exit(1)
	}
}

// merge stores the last JSON line of the run output in runOut under
// workload in the per-side file, creating the file if it does not exist.
// Output with no JSON line (a run that died) changes nothing.
func merge(file, workload, runOut string) error {
	b, err := os.ReadFile(runOut)
	if err != nil {
		return err
	}
	var line []byte
	for _, l := range bytes.Split(b, []byte("\n")) {
		if bytes.HasPrefix(l, []byte("{")) {
			line = l
		}
	}
	if line == nil {
		return nil
	}
	all := map[string]json.RawMessage{}
	if err := readJSON(file, &all); err != nil && !os.IsNotExist(err) {
		return err
	}
	if !json.Valid(line) {
		return fmt.Errorf("%s: the result line is not JSON", runOut)
	}
	all[workload] = line
	out, err := json.Marshal(all)
	if err != nil {
		return err
	}
	return os.WriteFile(file, append(out, '\n'), 0o644)
}

// summarise prints the table for the named workloads (all the spec
// declares when only is empty) and reports whether the change passes: no
// row worse, and no more failed runs than the parent.
func summarise(out io.Writer, specPath string, only []string, dir string) (bool, error) {
	var sp spec
	if err := readJSON(specPath, &sp); err != nil {
		return false, err
	}
	if len(only) > 0 {
		keep := sp.Workloads[:0]
		for _, w := range sp.Workloads {
			if slices.Contains(only, w.Name) {
				keep = append(keep, w)
			}
		}
		if sp.Workloads = keep; len(keep) != len(only) {
			return false, fmt.Errorf("-workloads %q names a workload the spec does not declare", strings.Join(only, " "))
		}
	}
	var parent, change []results
	for i := 1; ; i++ {
		var p, c results
		errP := readJSON(filepath.Join(dir, fmt.Sprintf("parent_%d.json", i)), &p)
		errC := readJSON(filepath.Join(dir, fmt.Sprintf("change_%d.json", i)), &c)
		if errP != nil || errC != nil {
			break // the pairs are numbered from 1 without gaps
		}
		parent, change = append(parent, p), append(change, c)
	}
	if len(parent) == 0 {
		return false, fmt.Errorf("no parent_1.json and change_1.json pair in %s", dir)
	}
	fmt.Fprintf(out, "%d pairs\n\n", len(parent))
	fmt.Fprintln(out, "| workload | metric | parent median [q1–q3] | change median [q1–q3] | Δ median | change better | verdict |")
	fmt.Fprintln(out, "|---|---|---|---|---|---|---|")
	worse := 0
	for _, w := range sp.Workloads {
		for _, m := range sp.EndToEnd {
			var ps, cs []float64
			better := 0
			for i := range parent {
				p, okP := value(parent[i], w.Name, m.Name)
				c, okC := value(change[i], w.Name, m.Name)
				if !okP || !okC {
					continue // a run that died has no pair to compare
				}
				ps, cs = append(ps, p), append(cs, c)
				if (m.Better == "higher" && c > p) || (m.Better == "lower" && c < p) {
					better++
				}
			}
			if len(ps) == 0 {
				continue
			}
			pm, cm := quantile(ps, 0.5), quantile(cs, 0.5)
			delta := "n/a"
			if pm != 0 {
				delta = fmt.Sprintf("%+.1f %%", 100*(cm-pm)/pm)
			}
			v := verdict(ps, cs, m.Better == "higher", m.Bound)
			if v == "worse" {
				worse++
			}
			fmt.Fprintf(out, "| %s | %s | %s | %s | %s | %d/%d | %s |\n", w.Name, m.Name,
				spread(ps, m.Unit), spread(cs, m.Unit), delta, better, len(ps), v)
		}
	}
	runs := len(parent) * len(sp.Workloads)
	pf, cf := failures(parent, sp), failures(change, sp)
	fmt.Fprintf(out, "\nfailed or missing runs: parent %d/%d, change %d/%d\n", pf, runs, cf, runs)
	switch {
	case worse > 0:
		fmt.Fprintf(out, "verdict: %d row(s) worse than the bound\n", worse)
	case cf > pf:
		fmt.Fprintln(out, "verdict: the change failed more runs than the parent")
	default:
		fmt.Fprintln(out, "verdict: no row worse than the bound")
	}
	return worse == 0 && cf <= pf, nil
}

// verdict compares the change's runs cs with the parent's ps on a metric
// whose median may move by at most bound (a fraction of the parent's
// median) in the wrong direction.
func verdict(ps, cs []float64, higher bool, bound float64) string {
	pm, cm := quantile(ps, 0.5), quantile(cs, 0.5)
	loss := (cm - pm) / math.Abs(pm)
	if higher {
		loss = -loss
	}
	if loss > bound {
		return "worse"
	}
	allBetter := quantile(cs, 1) < quantile(ps, 0)
	if higher {
		allBetter = quantile(cs, 0) > quantile(ps, 1)
	}
	if (quantile(ps, 0.75)-quantile(ps, 0.25))/math.Abs(pm) > bound && !allBetter {
		return "unresolved"
	}
	return "ok"
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(b, v)
}

func value(r results, workload, metric string) (float64, bool) {
	wr, ok := r[workload]
	if !ok {
		return 0, false
	}
	m, ok := wr.Metrics[metric]
	return m.Value, ok
}

// failures counts the workload runs that reported a failure, an incorrect
// result, or no result at all.
func failures(rs []results, sp spec) int {
	bad := 0
	for _, r := range rs {
		for _, w := range sp.Workloads {
			if wr, ok := r[w.Name]; !ok || !wr.Correct || wr.Failed != 0 {
				bad++
			}
		}
	}
	return bad
}

// spread formats the median and the quartiles of xs; seconds below one
// print as milliseconds.
func spread(xs []float64, unit string) string {
	f := func(v float64) string { return fmt.Sprintf("%.4g", v) }
	if unit == "s" && quantile(xs, 1) < 1 {
		f = func(v float64) string { return fmt.Sprintf("%.2f ms", 1e3*v) }
	}
	return fmt.Sprintf("%s [%s–%s]", f(quantile(xs, 0.5)), f(quantile(xs, 0.25)), f(quantile(xs, 0.75)))
}

// quantile interpolates linearly between the closest ranks of xs.
func quantile(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
