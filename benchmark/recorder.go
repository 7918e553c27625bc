package main

import (
	"sync/atomic"
	"time"
)

// recorder is the benchmark's side table: per source-tuple sequence number
// it keeps when the tuple was due and when its last effect happened, so no
// timestamp has to travel inside a tuple. Every slot has exactly one
// writer (the generator for due/emit*, the operator that observes the event
// for the rest) and is read only after the engine and the generator have
// been stopped and joined; cnt and completed are the only fields read
// while the run is live. Times are nanoseconds since t0; 0 means unset.
type recorder struct {
	t0     time.Time
	traced bool

	due  []int64        // when the tuple was due at the source
	done []int64        // when its last effect happened
	cnt  []atomic.Int32 // arrivals at the fan-in point that decides "last"

	completed atomic.Int64 // tuples whose done slot has been written

	// Span boundaries, kept only by a traced run.
	emitStart []int64 // generator entered the engine's emit (or the broker's Produce)
	emitEnd   []int64 // that call returned
	first     []int64 // first benchmark-owned operator downstream began executing it
	lastStart []int64 // last parallel subscriber began executing it
	lastEnd   []int64 // that subscriber's Execute returned
}

func newRecorder(capacity int, traced bool) *recorder {
	r := &recorder{
		t0:     time.Now(),
		traced: traced,
		due:    make([]int64, capacity),
		done:   make([]int64, capacity),
		cnt:    make([]atomic.Int32, capacity),
	}
	if traced {
		r.emitStart = make([]int64, capacity)
		r.emitEnd = make([]int64, capacity)
		r.first = make([]int64, capacity)
		r.lastStart = make([]int64, capacity)
		r.lastEnd = make([]int64, capacity)
	}
	return r
}

func (r *recorder) capacity() int64 { return int64(len(r.due)) }

// now reads the recorder's clock.
func (r *recorder) now() int64 { return int64(time.Since(r.t0)) }

// at converts a wall time to the recorder's clock.
func (r *recorder) at(t time.Time) int64 { return int64(t.Sub(r.t0)) }

// markDone records seq's last effect.
func (r *recorder) markDone(seq int64) {
	r.done[seq] = r.now()
	r.completed.Add(1)
}

// waitCompleted blocks until n tuples have completed or the timeout ran
// out, and reports which.
func (r *recorder) waitCompleted(n int64, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for r.completed.Load() < n {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(100 * time.Microsecond)
	}
	return true
}

type phaseKind int

const (
	phaseIdle     phaseKind = iota
	phaseQuota              // emit unthrottled until `until` tuples are out, then idle
	phasePaced              // open loop at `rate` tuples/s on the tick schedule
	phaseSaturate           // emit as fast as the engine's backpressure admits
)

type phase struct {
	kind  phaseKind
	rate  int
	until int64
}

// generator is the load generator's state machine. One goroutine drives it
// by calling step in a loop (a spout's Next, or the stock producer); the
// controller switches phases through set. It owns the sequence numbers:
// tuple seq is due at rec.due[seq].
type generator struct {
	rec *recorder
	// emit hands tuple seq to the system under test.
	emit func(seq int64)
	// gate, when set, holds the saturate phase back while it reads false
	// (the stock producer staying a bounded distance ahead of the spout).
	gate func() bool

	next    atomic.Pointer[phase]
	ack     atomic.Pointer[phase] // the phase step last ran under
	pacer   *pacer
	seq     int64
	emitted atomic.Int64 // seq, published for the controller
	lagMax  atomic.Int64 // worst paced lateness so far, ns
	skipped atomic.Int64 // paced quota dropped after long stalls
}

func newGenerator(rec *recorder, emit func(seq int64)) *generator {
	g := &generator{rec: rec, emit: emit}
	g.next.Store(&phase{kind: phaseIdle})
	return g
}

// set switches the phase and returns once the driving goroutine has seen
// the switch, so no emit of the previous phase is still in flight.
func (g *generator) set(p phase) {
	g.next.Store(&p)
	for g.ack.Load() != &p {
		time.Sleep(50 * time.Microsecond)
	}
}

// step emits at most one tuple, or sleeps briefly when none is due. It
// never blocks for longer than a tick outside the emit call itself.
func (g *generator) step() {
	p := g.next.Load()
	if p != g.ack.Load() {
		if p.kind == phasePaced {
			g.pacer = newPacer(p.rate, time.Now())
		}
		g.ack.Store(p)
	}
	if g.seq >= g.rec.capacity() {
		time.Sleep(tick) // side table full: the run ends on what was measured
		return
	}
	switch p.kind {
	case phaseQuota:
		if g.seq < p.until {
			g.send(time.Now())
			return
		}
	case phasePaced:
		now := time.Now()
		due, ok := g.pacer.take(now)
		if !ok {
			time.Sleep(due.Sub(now))
			return
		}
		g.lagMax.Store(int64(g.pacer.lagMax))
		g.skipped.Store(g.pacer.skipped)
		g.send(due)
		return
	case phaseSaturate:
		if g.gate == nil || g.gate() {
			g.send(time.Now())
			return
		}
	}
	time.Sleep(100 * time.Microsecond)
}

func (g *generator) send(due time.Time) {
	seq := g.seq
	g.rec.due[seq] = g.rec.at(due)
	if g.rec.traced {
		g.rec.emitStart[seq] = g.rec.now()
		g.emit(seq)
		g.rec.emitEnd[seq] = g.rec.now()
	} else {
		g.emit(seq)
	}
	g.seq++
	g.emitted.Store(g.seq)
}
