// Command whaled runs one of the evaluation applications on the live
// runtime under a chosen system preset, printing throughput/latency once a
// second — a quick way to watch the paper's systems behave.
//
// Usage:
//
//	whaled -app ride  -system whale -matchers 16 -workers 4 -duration 10s
//	whaled -app stock -system storm -matchers 8
//	whaled -app ride  -system whale -trace-out trace.json -bottleneck
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"sync/atomic"
	"time"

	"whale"
	"whale/internal/workload"
)

var systems = map[string]whale.System{
	"storm":            whale.SystemStorm,
	"rdma-storm":       whale.SystemRDMAStorm,
	"whale-woc":        whale.SystemWhaleWOC,
	"whale-woc-rdma":   whale.SystemWhaleWOCRDMA,
	"whale-sequential": whale.SystemWhaleSequential,
	"rdmc":             whale.SystemRDMC,
	"whale":            whale.SystemWhale,
}

func main() {
	app := flag.String("app", "ride", "application: ride | stock")
	sysName := flag.String("system", "whale", "system: "+strings.Join(keys(), " | "))
	workers := flag.Int("workers", 4, "worker processes")
	maxWorkers := flag.Int("max-workers", 0, "elastic worker-slot cap; slots beyond -workers start dormant (0 = no headroom)")
	matchers := flag.Int("matchers", 16, "matching operator parallelism")
	duration := flag.Duration("duration", 10*time.Second, "run duration")
	rate := flag.Float64("rate", 0, "broadcast stream rate (tuples/s, 0 = full speed)")
	obsAddr := flag.String("obs-addr", "", "serve /metrics and /debug endpoints on this address (e.g. :9090)")
	traceEvery := flag.Int64("trace-sample-every", 0, "trace every Nth spout tuple through the pipeline (0 = off)")
	traceOut := flag.String("trace-out", "", "write sampled spans as Chrome trace_event JSON to this file on shutdown (implies tracing; load via chrome://tracing or Perfetto)")
	bottleneck := flag.Bool("bottleneck", false, "print the ranked bottleneck attribution report on shutdown")
	checkpoint := flag.Duration("checkpoint", 0, "aligned snapshot checkpoint interval (0 = off; see DESIGN.md §13)")
	membership := flag.Bool("membership", false, "print the cluster membership report as JSON on shutdown (also served at /debug/membership with -obs-addr)")
	autoscale := flag.Duration("autoscale", 0, "M/D/1 autoscale controller interval (0 = off; requires -checkpoint; see DESIGN.md §15)")
	flag.Parse()
	if *traceOut != "" && *traceEvery == 0 {
		*traceEvery = 100
	}

	sys, ok := systems[*sysName]
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown system %q (known: %s)\n", *sysName, strings.Join(keys(), ", "))
		os.Exit(2)
	}

	var topo *whale.Topology
	var err error
	var matched, unmatched, trades atomic.Int64
	switch *app {
	case "ride":
		topo, err = workload.BuildRideTopology(workload.RideTopologyConfig{
			Gen:          workload.RideConfig{Drivers: 5000},
			Matchers:     *matchers,
			LocationRate: 20000,
			RequestRate:  *rate,
			Matched:      &matched,
			Unmatched:    &unmatched,
		})
	case "stock":
		topo, err = workload.BuildStockTopology(workload.StockTopologyConfig{
			Gen:                 workload.StockConfig{},
			Matchers:            *matchers,
			Rate:                *rate,
			Trades:              &trades,
			BroadcastToMatchers: true,
		})
	default:
		fmt.Fprintf(os.Stderr, "unknown app %q\n", *app)
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	cluster, err := whale.Run(topo, sys, whale.Options{
		Workers:            *workers,
		MaxWorkers:         *maxWorkers,
		ObsAddr:            *obsAddr,
		TraceSampleEvery:   *traceEvery,
		CheckpointInterval: *checkpoint,
		Autoscale:          whale.AutoscaleConfig{Interval: *autoscale},
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("running %s on %s with %d matchers over %d workers for %v\n",
		*app, sys, *matchers, *workers, *duration)
	if addr := cluster.ObsAddr(); addr != "" {
		fmt.Printf("observability: http://%s/metrics  http://%s/debug/whale\n", addr, addr)
	}

	start := time.Now()
	ticker := time.NewTicker(time.Second)
	defer ticker.Stop()
	var lastCompleted int64
	for range ticker.C {
		// The once-a-second printout reads the same registry snapshot the
		// /metrics and /debug/whale endpoints serve.
		s := cluster.Obs().Reg.Snapshot()
		completed := s.Counters["dsps.tuples_completed"]
		lat := s.Histograms["dsps.processing_latency_ns"]
		fmt.Printf("t=%3.0fs  completed/s=%-8d  p50=%-8s p99=%-8s  emitted=%-10d d*=%d\n",
			time.Since(start).Seconds(), completed-lastCompleted,
			time.Duration(lat.P50), time.Duration(lat.P99),
			s.Counters["dsps.tuples_emitted"], s.Gauges["multicast.active_dstar"])
		lastCompleted = completed
		if time.Since(start) >= *duration {
			break
		}
	}
	cluster.StopSources()
	cluster.Drain(5 * time.Second)
	if *checkpoint > 0 {
		s := cluster.Obs().Reg.Snapshot()
		fmt.Printf("checkpoints: epochs_completed=%d epochs_aborted=%d align_buffered=%d\n",
			s.Counters["snapshot.epochs_completed"], s.Counters["snapshot.epochs_aborted"],
			s.Counters["snapshot.align_buffered"])
	}
	if *bottleneck {
		fmt.Print(cluster.BottleneckReport())
	}
	if *autoscale > 0 {
		rep := cluster.AutoscaleReport()
		s := cluster.Obs().Reg.Snapshot()
		fmt.Printf("autoscale: evals=%d ups=%d downs=%d rejected=%d\n",
			s.Counters["autoscale.evals"], s.Counters["autoscale.scale_ups"],
			s.Counters["autoscale.scale_downs"], s.Counters["autoscale.rejected"])
		for _, d := range rep.Decisions {
			if d.Action != whale.AutoscaleHold {
				fmt.Printf("  %s %s %d -> %d (lambda=%.0f/s te=%s rho=%.2f): %s\n",
					d.Operator, d.Action, d.From, d.To,
					d.Lambda, time.Duration(d.Te*1e9), d.Rho, d.Reason)
			}
		}
	}
	if *traceOut != "" {
		if err := writeTrace(cluster, *traceOut); err != nil {
			fmt.Fprintln(os.Stderr, err)
		} else {
			fmt.Printf("trace written to %s\n", *traceOut)
		}
	}
	if *membership {
		if err := writeMembership(cluster, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
		}
	}
	cluster.Shutdown()
	switch *app {
	case "ride":
		fmt.Printf("requests matched=%d unmatched=%d\n", matched.Load(), unmatched.Load())
	case "stock":
		fmt.Printf("trades executed=%d\n", trades.Load())
	}
}

// writeMembership dumps the cluster membership report as indented JSON —
// the same document /debug/membership serves.
func writeMembership(c *whale.Cluster, w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(c.Membership())
}

// writeTrace dumps the tracer's retained spans as Chrome trace_event JSON.
func writeTrace(c *whale.Cluster, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := c.Obs().Tracer.WriteTraceEvents(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func keys() []string {
	out := make([]string, 0, len(systems))
	for k := range systems {
		out = append(out, k)
	}
	return out
}
