package main

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"whale/internal/metrics"
	"whale/internal/obs"
)

// traceSampleEvery is the engine's tuple-tracing rate in a traced run.
const traceSampleEvery = 64

// tracePhases is the traced engines' shape: a shorter saturate and paced
// phase than the untraced run's. No set-up cycles: setup_s is an end-to-end
// metric.
func tracePhases(seconds int) phases {
	s := time.Duration(seconds) * time.Second
	return phases{
		satWarm:   s / 16,
		sat:       s / 4,
		pacedWarm: s / 16,
		paced:     s * 3 / 8,
	}
}

// untracedPhases is the overhead base obs.trace_overhead_pct is taken
// against: the paced phase only, untraced, at a quarter of the run.
func untracedPhases(seconds int) phases {
	s := time.Duration(seconds) * time.Second
	return phases{pacedWarm: s / 16, paced: s * 3 / 16}
}

// readCounters flattens every cumulative counter the engine exposes into
// one map: the observability registry (per-worker series summed under
// their name without the worker.N prefix), the flow-control links and the
// transports.
func readCounters(in *instance) map[string]float64 {
	return flatCounters(in, in.eng.Obs().Reg.Snapshot().Counters)
}

func flatCounters(in *instance, registry map[string]int64) map[string]float64 {
	out := map[string]float64{}
	for name, v := range registry {
		if rest, ok := strings.CutPrefix(name, "worker."); ok {
			if _, series, ok := strings.Cut(rest, "."); ok {
				name = series
			}
		}
		out[name] += float64(v)
	}
	for _, l := range in.eng.LinkStats() {
		out["link.credit_wait_ns"] += float64(l.CreditWaitNS)
		out["link.queue_wait_ns"] += float64(l.QueueWaitNS)
		out["link.throttled_ns"] += float64(l.ThrottledNS)
		out["link.paused_ns"] += float64(l.PausedNS)
	}
	ts := in.eng.TransportSnapshot()
	out["transport.msgs_sent"] = float64(ts.MsgsSent)
	out["transport.bytes_sent"] = float64(ts.BytesSent)
	out["transport.send_ns"] = float64(ts.SendNS)
	if in.lagMax != nil {
		out["bench.kafkalite_lag_max"] = float64(in.lagMax.Load())
	}
	return out
}

// layerState is what a traced run reads off the drained engine before it
// stops: distributions and gauges that have no per-window meaning. dstar is
// filled in after the stop — Engine.ActiveDstar reads the controller
// without synchronisation while its manager still ticks.
type layerState struct {
	counters  map[string]float64
	hists     map[string]metrics.Snapshot
	execMean  map[string]float64 // operator id -> mean Execute ns
	treeDepth int
	maxFanout int
	dstar     int
}

func readLayerState(in *instance) *layerState {
	snap := in.eng.Obs().Reg.Snapshot()
	s := &layerState{
		counters: flatCounters(in, snap.Counters),
		hists:    snap.Histograms,
		execMean: map[string]float64{},
	}
	for id, st := range in.eng.OperatorStats() {
		s.execMean[id] = st.ExecLatency.Mean
	}
	if tree, _, ok := in.eng.ActiveTree(0); ok {
		s.treeDepth, s.maxFanout = tree.Depth(), tree.MaxOutDegree()
	}
	return s
}

// boundary is one cut of a tuple's path: the span named span ends at at[seq].
type boundary struct {
	span string
	at   []int64
}

// genCuts are the two cuts every chain starts with: the generator entering
// and leaving the call that hands the tuple to the system under test.
func genCuts(rec *recorder) []boundary {
	return []boundary{{"workload.generator_lag_us_mean", rec.emitStart}, {"dsps.emit_call_us_mean", rec.emitEnd}}
}

// spanNames lists every span metric, whichever workload has it.
var spanNames = []string{
	"workload.generator_lag_us_mean", "dsps.emit_call_us_mean", "dsps.transit_us_mean", "multicast.spread_us_mean",
	"dsps.operator_us_mean", "dsps.next_hop_us_mean", "kafkalite.source_wait_us_mean",
}

// cuts returns seq's boundary times clamped into path order: a boundary
// that was never reached, or that a racing observer stamped before its
// predecessor (a local subscriber can run before Emit returns), collapses
// onto its predecessor, so the spans always add up to done - due.
func cuts(ch []boundary, rec *recorder, seq int64, out []int64) []int64 {
	prev, done := rec.due[seq], rec.done[seq]
	out = out[:0]
	for _, b := range ch {
		t := b.at[seq]
		if t < prev {
			t = prev
		}
		if t > done {
			t = done
		}
		out = append(out, t)
		prev = t
	}
	return out
}

// spanMeans averages each span of the chain over the given tuples, in µs,
// and returns with it the mean due-to-done latency of the same tuples.
func spanMeans(ch []boundary, rec *recorder, seqs []int64) (map[string]float64, float64) {
	sums := make([]float64, len(ch))
	var total float64
	var ts []int64
	for _, seq := range seqs {
		prev := rec.due[seq]
		ts = cuts(ch, rec, seq, ts)
		for i, t := range ts {
			sums[i] += float64(t - prev)
			prev = t
		}
		total += float64(rec.done[seq] - rec.due[seq])
	}
	out := map[string]float64{}
	n := float64(len(seqs))
	if n == 0 {
		return out, 0
	}
	for i, b := range ch {
		out[b.span] = sums[i] / n / 1e3
	}
	return out, total / n / 1e3
}

// runTraced is the -trace 1 run: per-layer metrics only. Like the untraced
// run it gives the saturate and the paced phase an engine each; between them
// an untraced engine runs the paced phase for obs.trace_overhead_pct, so
// that both sides of that comparison start on a heap the saturate phase has
// already grown.
func runTraced(w job, basePh, tracePh phases, spansPath string) (result, error) {
	rs, err := measure(w, tracePh.satOnly(), traceSampleEvery)
	if err != nil {
		return result{}, err
	}
	base, err := measure(w, basePh, 0)
	if err != nil {
		return result{}, err
	}
	r, err := measure(w, tracePh.pacedOnly(), traceSampleEvery)
	if err != nil {
		return result{}, err
	}
	m := map[string]metric{}
	set := func(name, unit string, v float64) { m[name] = metric{v, unit} }
	// ls is the paced engine's final state: the distributions and the tree
	// are those latency was measured on. total adds the saturated engine's
	// count to the paced one's.
	ls := r.layerFinal
	total := func(key string) float64 { return rs.layerFinal.counters[key] + ls.counters[key] }
	tuplesP, tuplesS := r.paced.tuples(), rs.sat.tuples()
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}

	// Outside-in spans over the paced window.
	ch := w.chain(r.rec)
	seqs := r.latencySeqs(r.paced)
	means, latMean := spanMeans(ch, r.rec, seqs)
	var spanSum float64
	for _, name := range spanNames {
		set(name, "us", means[name])
		spanSum += means[name]
	}
	set("workload.span_sum_us", "us", spanSum)
	set("workload.latency_mean_us", "us", latMean)

	// tuple, transport, multicast, snapshot, kafkalite: timed direct calls.
	if err := probes(w, set); err != nil {
		return result{}, err
	}

	// dsps: the engine's public counters.
	set("dsps.serializations_per_tuple", "count", ratio(total("dsps.serializations"), float64(rs.n+r.n)))
	set("dsps.serialization_ns_per_tuple", "ns", ratio(r.paced.delta("dsps.serialization_ns"), tuplesP))
	for _, op := range []string{"sink", "matcher", "aggregator", "split", "volume"} {
		set("dsps.exec_ns_mean."+op, "ns", ls.execMean[op])
	}
	set("dsps.credit_wait_ns_per_tuple", "ns", ratio(r.paced.delta("link.credit_wait_ns"), tuplesP))
	set("dsps.sat_credit_wait_ns_per_tuple", "ns", ratio(rs.sat.delta("link.credit_wait_ns"), tuplesS))
	set("dsps.credit_grants_per_tuple", "count", ratio(r.paced.delta("dsps.credit_grants"), tuplesP))
	set("dsps.credit_timeouts", "count", total("dsps.credit_timeouts"))
	set("dsps.route_errors", "count", total("dsps.route_errors"))
	set("dsps.link_queue_wait_ns_per_tuple", "ns", ratio(r.paced.delta("link.queue_wait_ns"), tuplesP))
	set("dsps.sat_link_queue_wait_ns_per_tuple", "ns", ratio(rs.sat.delta("link.queue_wait_ns"), tuplesS))
	set("dsps.link_throttled_ms", "ms", total("link.throttled_ns")/1e6)
	set("dsps.link_paused_ms", "ms", total("link.paused_ns")/1e6)
	set("dsps.exec_queue_wait_ns_per_tuple", "ns", ratio(r.paced.delta("dsps.exec_queue_wait_ns"), tuplesP))
	set("dsps.sat_exec_queue_wait_ns_per_tuple", "ns", ratio(rs.sat.delta("dsps.exec_queue_wait_ns"), tuplesS))
	set("dsps.send_retries", "count", total("dsps.send_retries"))
	set("dsps.tuples_shed", "count", total("dsps.tuples_shed"))
	set("dsps.complete_latency_p50_ms", "ms", float64(ls.hists["dsps.complete_latency_ns"].P50)/1e6)
	lat := r.latencies(r.paced)
	set("dsps.sink_latency_p90_ms", "ms", float64(percentile(lat, 0.90))/1e6)
	set("dsps.sink_latency_p99_ms", "ms", float64(percentile(lat, 0.99))/1e6)
	set("dsps.sink_latency_max_ms", "ms", float64(percentile(lat, 1))/1e6)
	set("dsps.sat_latency_p50_ms", "ms", float64(percentile(rs.latencies(rs.sat), 0.5))/1e6)
	set("dsps.sat_throughput_tps", "1/s", rs.throughput())
	set("dsps.peak_rss_mb", "MB", r.peakRSSMB)

	// transport: the engine's transports, summed over workers.
	msgsP := r.paced.delta("transport.msgs_sent")
	set("transport.msgs_per_tuple", "count", ratio(msgsP, tuplesP))
	set("transport.sat_msgs_per_tuple", "count", ratio(rs.sat.delta("transport.msgs_sent"), tuplesS))
	set("transport.wire_bytes_per_tuple", "B", ratio(r.paced.delta("transport.bytes_sent"), tuplesP))
	set("transport.send_ns_per_tuple", "ns", ratio(r.paced.delta("transport.send_ns"), tuplesP))
	set("transport.send_ns_per_msg", "ns", ratio(r.paced.delta("transport.send_ns"), msgsP))

	// rdma: the emulated channels' counters (all zero on the TCP wire).
	for _, win := range []struct {
		prefix string
		w      window
	}{{"rdma.", r.paced}, {"rdma.sat_", rs.sat}} {
		timer, size := win.w.delta("rdma.timer_flushes"), win.w.delta("rdma.size_flushes")
		flushes := win.w.delta("rdma.flushes_mms") + win.w.delta("rdma.flushes_wtl") + win.w.delta("rdma.flushes_explicit")
		set(win.prefix+"timer_flush_share", "%", 100*ratio(timer, timer+size))
		set(win.prefix+"flush_bytes_mean", "B", ratio(win.w.delta("rdma.flush_bytes"), flushes))
		set(win.prefix+"ring_wait_ns_per_tuple", "ns", ratio(win.w.delta("rdma.ring_wait_ns"), win.w.tuples()))
	}
	set("rdma.work_requests_per_tuple", "count", ratio(r.paced.delta("rdma.work_requests"), tuplesP))
	set("rdma.cq_poll_ns_per_tuple", "ns", ratio(r.paced.delta("rdma.cq_poll_ns"), tuplesP))

	// multicast and control: the live tree and its controller.
	set("multicast.tree_depth", "count", float64(ls.treeDepth))
	set("multicast.max_fanout", "count", float64(ls.maxFanout))
	set("multicast.latency_p50_ms", "ms", float64(ls.hists["multicast.latency_ns"].P50)/1e6)
	set("multicast.switch_latency_p50_ms", "ms", float64(ls.hists["multicast.switch_latency_ns"].P50)/1e6)
	set("control.switches", "count", total("multicast.switches"))
	set("control.skipped_switches", "count", total("multicast.switches_skipped"))
	set("control.dstar_final", "count", float64(ls.dstar))

	// snapshot: the checkpoint plane (stock_reliable only).
	set("snapshot.epochs_completed", "count", total("snapshot.epochs_completed"))
	set("snapshot.epochs_aborted", "count", total("snapshot.epochs_aborted"))
	set("snapshot.epoch_latency_p50_ms", "ms", float64(ls.hists["snapshot.epoch_latency_ns"].P50)/1e6)
	set("snapshot.align_wait_ns_per_tuple", "ns", ratio(r.paced.delta("snapshot.align_wait_ns"), tuplesP))
	set("kafkalite.lag_records_max", "count", ls.counters["bench.kafkalite_lag_max"])

	// obs: the engine's own tracer, read at the end of the traced run.
	var attributed float64 // Σ stage means + stall time per traced tuple, ns
	traces := ratio(float64(r.n), traceSampleEvery)
	for _, st := range obs.Stages {
		h := ls.hists["trace.stage."+string(st)+"_ns"]
		set("obs.stage_us_p50."+string(st), "us", float64(h.P50)/1e3)
		attributed += h.Mean
	}
	for _, st := range obs.StallStages {
		h := ls.hists["trace.stall."+string(st)+"_ns"]
		if st != obs.StallReplay {
			set("obs.stall_us_p50."+string(st), "us", float64(h.P50)/1e3)
		}
		attributed += ratio(float64(h.Sum), traces)
	}
	// The paced engine's whole-run mean latency against its whole-run stage
	// histograms. A residual above a tenth is a finding to report, not a
	// failure of the run.
	_, wholeMean := spanMeans(ch, r.rec, r.latencySeqs(r.whole()))
	set("obs.unattributed_share", "%", 100*(1-ratio(attributed/1e3, wholeMean)))
	set("obs.trace_overhead_pct", "%", 100*(ratio(r.paced.cpuPerTuple(), base.paced.cpuPerTuple())-1))

	// workload: the generator and the reference.
	set("workload.reference_tps", "1/s", r.refTPS)
	set("workload.generator_lag_ms_max", "ms", float64(r.lagMax)/1e6)
	set("workload.generator_skipped", "count", float64(r.skipped))
	set("workload.sat_warmup_ms", "ms", float64(rs.satWarmup)/1e6)
	set("workload.page_faults_per_tuple", "count", r.paced.faultsPerTuple())
	set("workload.sat_page_faults_per_tuple", "count", rs.sat.faultsPerTuple())
	attempted, failed := rs.n+base.n+r.n, rs.failed+base.failed+r.failed
	set("workload.failed_share", "%", 100*ratio(float64(failed), float64(attempted)))

	fmt.Printf("# %s traced: %d latency samples; span means add up to %.1f us, mean latency %.1f us\n",
		w.name(), len(seqs), spanSum, latMean)
	for _, d := range slices.Concat(rs.detail, base.detail, r.detail) {
		fmt.Println("# FAILED CHECK:", d)
	}
	if spansPath != "" {
		if err := writeSpans(spansPath, w.name(), ch, r.rec, seqs); err != nil {
			return result{}, err
		}
	}
	return result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: m}, nil
}
