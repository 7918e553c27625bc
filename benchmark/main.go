// Command benchmark measures the live Whale engine end to end and layer by
// layer. One process runs one workload:
//
//	go run . -workload fanout_whale -seed 1 -seconds 24 -trace 0
//
// launches the engine through core.System.Launch, drives it with a
// benchmark-owned load generator through a saturated (backpressure-closed)
// and a paced (open-loop) phase, checks the outputs against a
// single-threaded reference, and prints one JSON object as the last line of
// standard output. -trace 0 reports the end-to-end metrics; -trace 1 runs
// with the engine's tuple tracing on and reports the per-layer metrics.
// See README.md for what each metric means and how it was sized.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// metricDef names one reported metric.
type metricDef struct {
	name, unit string
	higher     bool    // better when higher
	bound      float64 // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd lists the metrics a user of the system would see, reported by
// an untraced run. BENCHMARK.json carries the same table for the driver.
var endToEnd = []metricDef{
	{"throughput_tps", "1/s", true, 0.25},
	{"latency_p50_ms", "ms", false, 0.15},
	{"cpu_us_per_tuple", "us", false, 0.25},
	{"allocs_per_tuple", "count", false, 0.10},
	{"bytes_per_tuple", "B", false, 0.10},
	{"setup_s", "s", false, 0.25},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the run's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: fanout_whale, fanout_storm, ride_join or stock_reliable")
		seed    = flag.Int64("seed", 1, "seed the workload's inputs are generated from")
		seconds = flag.Int("seconds", 24, "length of the measured phases together, in seconds")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics, tracing on")
		spans   = flag.String("spans", "", "traced run: file for the benchmark's spans as Chrome trace JSON (default .bench_build/spans_<workload>.json)")
		compare = flag.Bool("compare", false, "compare two result sets (the two file arguments) against the bounds and exit 1 when they disagree")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two result files"))
		}
		ok, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}
	if *seconds < 1 {
		fatal(fmt.Errorf("-seconds %d: need at least 1", *seconds))
	}
	// A wedged engine must not outlive the driver's per-run limit.
	watchdog := time.AfterFunc(170*time.Second, func() {
		fmt.Fprintln(os.Stderr, "benchmark: run exceeded 170s, giving up")
		os.Exit(2)
	})
	defer watchdog.Stop()

	w, err := newWorkload(*name, *seed)
	if err != nil {
		fatal(err)
	}
	if *spans == "" {
		*spans = filepath.Join(".bench_build", "spans_"+w.name()+".json")
	}
	var res result
	if *trace == 0 {
		res, err = runEndToEnd(w, runPhases(*seconds))
	} else {
		res, err = runTraced(w, untracedPhases(*seconds), tracePhases(*seconds), *spans)
	}
	if err != nil {
		fatal(err)
	}
	for _, v := range res.Metrics {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			res.Correct = false
		}
	}
	printResult(os.Stdout, w.name(), res)
	if !res.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

// runEndToEnd is the untraced run: one engine through the saturate phase,
// a second through the paced phase, then the cold set-up cycles. The cycles
// come last because every stopped emulated-RDMA engine stays reachable
// (rdma's endpoint registry is never emptied): 41 of them ahead of the
// measured engines made a 5 GB heap the collector ran twice on in 24 s, and
// a run that touched fresh memory for every tuple.
func runEndToEnd(w job, ph phases) (result, error) {
	rs, err := measure(w, ph.satOnly(), 0)
	if err != nil {
		return result{}, err
	}
	rp, err := measure(w, ph.pacedOnly(), 0)
	if err != nil {
		return result{}, err
	}
	setup, err := setupSeconds(w, ph.setupCycles, ph.setupTuples)
	if err != nil {
		return result{}, err
	}
	lat := rp.latencies(rp.paced)
	tuples := rp.paced.tuples()
	failed := rs.failed + rp.failed
	res := result{
		Correct:   failed == 0,
		Attempted: rs.n + rp.n,
		Failed:    failed,
		Metrics: map[string]metric{
			"throughput_tps":   {rs.throughput(), "1/s"},
			"latency_p50_ms":   {float64(percentile(lat, 0.5)) / 1e6, "ms"},
			"cpu_us_per_tuple": {rp.paced.cpuPerTuple(), "us"},
			"allocs_per_tuple": {float64(rp.paced.to.mallocs-rp.paced.from.mallocs) / tuples, "count"},
			"bytes_per_tuple":  {float64(rp.paced.to.bytes-rp.paced.from.bytes) / tuples, "B"},
			"setup_s":          {setup, "s"},
		},
	}
	fmt.Printf("# %s: %d latency samples, %d source tuples in the paced window, %d in the saturated one, %d in the run\n",
		w.name(), len(lat), int64(tuples), int64(rs.sat.tuples()), rs.n+rp.n)
	fmt.Printf("# latency p90 %.3f ms  p99 %.3f ms  max %.3f ms; generator lag max %.3f ms, %d skipped\n",
		float64(percentile(lat, 0.9))/1e6, float64(percentile(lat, 0.99))/1e6, float64(percentile(lat, 1))/1e6,
		float64(rp.lagMax)/1e6, rp.skipped)
	fmt.Printf("# saturate warm-up %.2f s; page faults per tuple %.4f saturated, %.4f paced; peak RSS %.0f MB\n",
		rs.satWarmup.Seconds(), rs.sat.faultsPerTuple(), rp.paced.faultsPerTuple(), rp.peakRSSMB)
	fmt.Printf("# saturate window, %s\n", rs.bucketSummary())
	for _, d := range append(rs.detail, rp.detail...) {
		fmt.Println("# FAILED CHECK:", d)
	}
	return res, nil
}

// printResult prints one "name unit value" line per metric and then the
// JSON object the driver reads.
func printResult(out *os.File, workload string, res result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(out, "%s %s %s %v\n", workload, n, res.Metrics[n].Unit, res.Metrics[n].Value)
	}
	fmt.Fprintf(out, "%s attempted count %d\n%s failed count %d\n", workload, res.Attempted, workload, res.Failed)
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintln(out, string(line))
}
