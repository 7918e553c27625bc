package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"
)

// phases fixes the shape of one run. The lengths are the same on every
// commit: a later change is compared against its parent under identical
// phases, so nothing here may depend on what is being measured.
type phases struct {
	satWarm     time.Duration // closed by backpressure, discarded; the least it lasts
	sat         time.Duration // closed by backpressure, measured
	pacedWarm   time.Duration // open loop, discarded
	paced       time.Duration // open loop, measured
	setupCycles int           // cold Launch → first tuples processed → Stop cycles
	setupTuples int64         // tuples a cycle waits for
}

// bucketWidth is the grain of the saturate phase's completion-rate buckets.
const bucketWidth = 250 * time.Millisecond

// saturateCeiling sizes the side table: the saturate phase is assumed never
// to complete more source tuples per second than this. A faster machine
// fills the table early and the generator idles for the rest of the phase.
const saturateCeiling = 250000

// Page faults are how the saturate warm-up knows the process has stopped
// growing: it lasts until fewer than calmFaults were taken in each of
// calmTicks consecutive faultTicks, and at most warmCapFactor times its
// nominal length.
const (
	faultTick     = 250 * time.Millisecond
	calmFaults    = 1500 // 6 MB of first-touched memory per tick
	calmTicks     = 4
	warmCapFactor = 4
)

// satOnly and pacedOnly are the two halves of a run. Each gets an engine of
// its own, so that what the saturate phase leaves behind (a controller's
// choice of tree, a topic of a million records, queues) is not what the paced
// phase is measured on.
func (p phases) satOnly() phases   { return phases{satWarm: p.satWarm, sat: p.sat} }
func (p phases) pacedOnly() phases { return phases{pacedWarm: p.pacedWarm, paced: p.paced} }

// runPhases splits the driver's --seconds over the measured run: roughly
// half saturated and half paced, a fifth of the total spent on warm-up.
func runPhases(seconds int) phases {
	s := time.Duration(seconds) * time.Second
	return phases{
		satWarm:     s / 12,
		sat:         s * 9 / 24,
		pacedWarm:   s / 8,
		paced:       s * 10 / 24,
		setupCycles: 41,
		setupTuples: 1000,
	}
}

// mark is what the controller reads at a phase boundary.
type mark struct {
	at        int64 // recorder clock
	emitted   int64
	completed int64
	cpu       time.Duration
	faults    int64 // minor page faults
	mallocs   uint64
	bytes     uint64
	counters  map[string]float64 // traced runs only
}

// window is one measured stretch of the run, between two marks.
type window struct{ from, to mark }

// tuples is the number of source tuples completed in the window — the
// denominator of the per-tuple costs.
func (w window) tuples() float64 { return float64(w.to.completed - w.from.completed) }

// delta is the growth of a cumulative engine counter over the window
// (traced runs only).
func (w window) delta(key string) float64 { return w.to.counters[key] - w.from.counters[key] }

// cpuPerTuple is process CPU per completed source tuple over the window, in µs.
func (w window) cpuPerTuple() float64 {
	return float64((w.to.cpu - w.from.cpu).Microseconds()) / w.tuples()
}

// faultsPerTuple is minor page faults per completed source tuple over the window.
func (w window) faultsPerTuple() float64 { return float64(w.to.faults-w.from.faults) / w.tuples() }

// measured is one engine's run through the saturate and paced phases.
type measured struct {
	rec *recorder
	// start is taken before the first tuple and end after the last window;
	// sat and paced are the measured windows (empty when the phases left
	// one out).
	start, end mark
	sat, paced window
	// satWarmup is how long the saturate warm-up lasted.
	satWarmup time.Duration
	// n is the number of source tuples emitted over the whole run.
	n int64
	// failed counts source tuples that did not come out right, plus
	// reliability trees the engine failed and tuples it shed.
	failed int64
	detail []string

	lagMax     time.Duration
	skipped    int64
	refTPS     float64
	peakRSSMB  float64
	inLatency  func(seq int64) bool
	layerFinal *layerState // traced runs only
}

// measure launches a fresh engine, takes it through the phases (the callers
// pass one: satOnly or pacedOnly), stops it and checks what it put out.
func measure(w job, ph phases, traceEvery int64) (*measured, error) {
	capacity := int((ph.pacedWarm+ph.paced).Seconds()*float64(w.pacedRate())) +
		int((warmCapFactor*ph.satWarm+ph.sat).Seconds()*saturateCeiling) + 1<<14
	rec := newRecorder(capacity, traceEvery > 0)
	in, err := w.launch(rec, traceEvery)
	if err != nil {
		return nil, fmt.Errorf("launch %s: %w", w.name(), err)
	}
	res := &measured{rec: rec, inLatency: in.inLatency}
	take := func() mark {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		m := mark{
			at: rec.now(), emitted: in.gen.emitted.Load(), completed: rec.completed.Load(),
			cpu: cpuTime(), faults: minorFaults(), mallocs: ms.Mallocs, bytes: ms.TotalAlloc,
		}
		if traceEvery > 0 {
			m.counters = readCounters(in)
		}
		return m
	}

	if in.preload != nil {
		if err := in.preload(); err != nil {
			in.stop()
			return nil, fmt.Errorf("%s preload: %w", w.name(), err)
		}
	}
	res.start = take()
	res.end = res.start
	if ph.sat > 0 {
		in.gen.set(phase{kind: phaseSaturate})
		res.satWarmup = settle(ph.satWarm)
		res.sat.from = take()
		time.Sleep(ph.sat)
		res.sat.to = take()
		res.end = res.sat.to
	}
	if ph.paced > 0 {
		in.gen.set(phase{kind: phasePaced, rate: w.pacedRate()})
		time.Sleep(ph.pacedWarm)
		res.paced.from = take()
		time.Sleep(ph.paced)
		res.paced.to = take()
		res.end = res.paced.to
	}
	var drained bool
	res.n, drained = in.quiesce(rec, 30*time.Second)
	res.lagMax = time.Duration(in.gen.lagMax.Load())
	res.skipped = in.gen.skipped.Load()
	if traceEvery > 0 {
		res.layerFinal = readLayerState(in)
	}
	em := in.eng.Metrics()
	res.failed = em.TuplesFailed.Value() + em.TuplesShed.Value()
	in.stop()
	if res.layerFinal != nil {
		res.layerFinal.dstar = in.eng.ActiveDstar()
	}
	res.peakRSSMB = peakRSSMB()
	if !drained {
		res.detail = note(res.detail, "drain timed out: %d of %d source tuples completed; engine counted %d route, %d decode and %d send errors over %d tree switches",
			rec.completed.Load(), res.n, em.RouteErrors.Value(), em.DecodeErrors.Value(), em.SendErrors.Value(), em.Switches.Value())
	}
	if res.failed > 0 {
		res.detail = note(res.detail, "engine failed %d reliability trees and shed %d tuples",
			em.TuplesFailed.Value(), em.TuplesShed.Value())
	}

	t0 := time.Now()
	refN := w.reference(res.n)
	if d := time.Since(t0); d > 0 {
		res.refTPS = float64(refN) / d.Seconds()
	}
	failed, detail := in.verify(res.n)
	res.failed += failed
	res.detail = append(res.detail, detail...)
	return res, nil
}

// settle sleeps through a warm-up of at least least and returns how long it
// took: it goes on until the process has stopped touching new memory (see
// calmFaults), so that what a first-touched page costs on this machine at
// this moment — 2 µs or 40, see the README — stays out of the measured window.
func settle(least time.Duration) time.Duration {
	t0 := time.Now()
	last, calm := minorFaults(), 0
	for time.Since(t0) < warmCapFactor*least {
		time.Sleep(faultTick)
		now := minorFaults()
		if now-last < calmFaults {
			calm++
		} else {
			calm = 0
		}
		last = now
		if calm >= calmTicks && time.Since(t0) >= least {
			break
		}
	}
	return time.Since(t0)
}

// whole is the run from its first tuple to the end of the last window.
func (r *measured) whole() window { return window{r.start, r.end} }

// latencySeqs lists the latency-sampled, completed tuples that became due
// within the window.
func (r *measured) latencySeqs(w window) []int64 {
	var out []int64
	for seq := w.from.emitted; seq < w.to.emitted; seq++ {
		if r.rec.done[seq] != 0 && (r.inLatency == nil || r.inLatency(seq)) {
			out = append(out, seq)
		}
	}
	return out
}

// latencies returns those tuples' due-to-last-effect times, in ns, sorted.
func (r *measured) latencies(w window) []int64 {
	out := r.latencySeqs(w)
	for i, seq := range out {
		out[i] = r.rec.done[seq] - r.rec.due[seq]
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// throughput is the median 250 ms-bucket completion rate of the saturate
// measured window, in source tuples per second.
func (r *measured) throughput() float64 {
	return bucketMedianRate(r.rec.done[:r.n], r.sat.from.at, r.sat.to.at, int64(bucketWidth))
}

// bucketSummary describes how even the saturate window was: the slowest
// bucket, the quartiles and the fastest, in thousands per second.
func (r *measured) bucketSummary() string {
	rates := bucketRates(r.rec.done[:r.n], r.sat.from.at, r.sat.to.at, int64(bucketWidth))
	if len(rates) == 0 {
		return "no buckets"
	}
	sort.Float64s(rates)
	at := func(q float64) float64 { return rates[int(q*float64(len(rates)-1))] / 1e3 }
	return fmt.Sprintf("%d buckets of %v: min %.1f  p25 %.1f  median %.1f  p75 %.1f  max %.1f k/s",
		len(rates), bucketWidth, at(0), at(0.25), at(0.5), at(0.75), at(1))
}

// setupCycle times one cold start: Launch until the first tuples have been
// fully processed. Stopping the engine is not part of the time.
func setupCycle(w job, tuples int64) (time.Duration, error) {
	rec := newRecorder(int(tuples)+64, false)
	t0 := time.Now()
	in, err := w.launch(rec, 0)
	if err != nil {
		return 0, fmt.Errorf("launch %s: %w", w.name(), err)
	}
	in.gen.set(phase{kind: phaseQuota, until: tuples})
	ok := rec.waitCompleted(tuples, 20*time.Second)
	d := time.Since(t0)
	in.quiesce(rec, 5*time.Second)
	in.stop()
	if !ok {
		return 0, fmt.Errorf("%s set-up cycle: %d of %d tuples processed in 20s", w.name(), rec.completed.Load(), tuples)
	}
	return d, nil
}

// setupSeconds is the median cold-start time over the given cycles. One
// start reads anywhere within a factor of three; the median of a few dozen
// repeats within a few percent.
func setupSeconds(w job, cycles int, tuples int64) (float64, error) {
	var ds []float64
	for i := 0; i < cycles; i++ {
		d, err := setupCycle(w, tuples)
		if err != nil {
			return 0, err
		}
		ds = append(ds, d.Seconds())
	}
	return median(ds), nil
}
