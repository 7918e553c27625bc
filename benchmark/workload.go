package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"whale/internal/core"
	"whale/internal/dsps"
	"whale/internal/tuple"
)

// job is one set of inputs plus the topology that consumes them. The
// inputs are fixed when the workload is built from its seed; launch may be
// called any number of times (once per cold set-up cycle, once for the
// measured run) and every call gets a fresh engine.
type job interface {
	name() string
	// system is the core preset the workload runs under.
	system() core.System
	// pacedRate is the open-loop rate of the paced phase in tuples/s, fixed
	// so that the process is about 40 % busy on the sizing box.
	pacedRate() int
	// launch starts a fresh engine whose benchmark-owned source and
	// operators record into rec. traceEvery is core.Options.TraceSampleEvery.
	launch(rec *recorder, traceEvery int64) (*instance, error)
	// reference runs the same job single-threaded over the first n source
	// tuples, without an engine, and returns how many it processed (it may
	// stop early where the full prefix would take too long) so the caller
	// can time it; what it computed is kept for verify.
	reference(n int64) int64
	// chain returns the workload's span boundaries in path order, from the
	// due time to the last effect. The cuts sit wherever a benchmark-owned
	// operator observes the tuple, so the spans partition due → done.
	chain(rec *recorder) []boundary
	// sample returns a representative tuple and the number of local
	// destinations a worker message carrying it addresses, for the
	// direct-call tuple and transport probes.
	sample() (*tuple.Tuple, int)
}

// instance is one running engine with the benchmark's hooks into it.
type instance struct {
	eng *dsps.Engine
	gen *generator

	// preload, when set, runs the workload's quiesced correctness check on
	// the fresh engine before the timed phases.
	preload func() error
	// inLatency reports whether seq's due-to-done time is a latency sample
	// (nil: every tuple is).
	inLatency func(seq int64) bool
	// settled reports whether everything the n emitted source tuples cause
	// has happened (beyond rec.completed reaching n); nil: nothing more.
	settled func(n int64) bool
	// verify checks the outputs for the first n source tuples after the
	// engine has stopped and returns how many of them did not come out
	// right, with a description of the first few discrepancies.
	verify func(n int64) (failed int64, detail []string)
	// halt stops whatever the workload runs beside the engine (the stock
	// producer) and waits for it; nil: nothing.
	halt func()

	// lagMax, when set, is the most records the source was behind its
	// input during the paced phases (stock_reliable's spout behind the topic).
	lagMax *atomic.Int64
}

// quiesce idles the generator and waits until the n source tuples emitted
// so far have had their last effect, whatever else the workload waits for
// has happened, and the engine's queues are empty. It reports whether all
// of the first two happened in time. Stopping a reliable topology with
// trees still in flight would otherwise sit out the engine's whole drain
// timeout.
func (in *instance) quiesce(rec *recorder, timeout time.Duration) (n int64, ok bool) {
	in.gen.set(phase{kind: phaseIdle})
	n = in.gen.emitted.Load()
	deadline := time.Now().Add(timeout)
	ok = rec.waitCompleted(n, timeout)
	for ok && in.settled != nil && !in.settled(n) {
		ok = time.Now().Before(deadline)
		time.Sleep(200 * time.Microsecond)
	}
	in.eng.Drain(2 * time.Second)
	return n, ok
}

// stop shuts the instance down and joins everything it started.
func (in *instance) stop() {
	in.gen.set(phase{kind: phaseIdle})
	if in.halt != nil {
		in.halt()
	}
	in.eng.Stop()
}

// workloadNames lists the workloads in reporting order.
var workloadNames = []string{"fanout_whale", "fanout_storm", "ride_join", "stock_reliable"}

// newWorkload builds the named workload's inputs from seed.
func newWorkload(name string, seed int64) (job, error) {
	switch name {
	case "fanout_whale":
		return newFanout(name, core.Whale, 12000, seed), nil
	case "fanout_storm":
		return newFanout(name, core.Storm, 8000, seed), nil
	case "ride_join":
		return newRide(seed), nil
	case "stock_reliable":
		return newStock(seed), nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
}

// genSpout is the benchmark-owned source task: the engine's spout loop
// drives the generator, and the generator emits through the collector the
// loop handed in. It never reports exhaustion — an exited source stops
// serving checkpoint triggers — and idles instead.
type genSpout struct {
	gen *generator
	c   *dsps.Collector
}

func (s *genSpout) Open(*dsps.TaskContext) {}
func (s *genSpout) Next(c *dsps.Collector) bool {
	s.c = c
	s.gen.step()
	return true
}
func (s *genSpout) Close() {}

// note appends a discrepancy description, keeping only the first few.
func note(detail []string, format string, args ...any) []string {
	if len(detail) < 8 {
		detail = append(detail, fmt.Sprintf(format, args...))
	}
	return detail
}
