// Package sim is a small discrete-event simulation kernel: a virtual clock,
// an event heap, single-server FIFO queues with optional capacity (the
// transfer queues of the paper), and deterministic random processes
// (Poisson arrivals). The benchmark harness uses it to model the paper's
// 30-node cluster at full scale (480 instances) in milliseconds of real
// time, with every cost parameterised by internal/netmodel.
package sim

import (
	"fmt"
	"math"
	"math/rand"
)

// Time is simulated time in nanoseconds.
type Time = int64

// event is one scheduled callback.
type event struct {
	at  Time
	seq uint64
	fn  func()
}

// before orders events by time, FIFO among simultaneous events.
func (ev *event) before(o *event) bool {
	if ev.at != o.at {
		return ev.at < o.at
	}
	return ev.seq < o.seq
}

// eventHeap is a binary min-heap of events held by value, so scheduling
// allocates nothing beyond the slice's growth.
type eventHeap []event

// push adds ev, sifting it up from the new leaf.
func (h *eventHeap) push(ev event) {
	*h = append(*h, ev)
	q := *h
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !ev.before(&q[p]) {
			break
		}
		q[i] = q[p]
		i = p
	}
	q[i] = ev
}

// pop removes and returns the earliest event; the heap must not be empty.
func (h *eventHeap) pop() event {
	q := *h
	top := q[0]
	n := len(q) - 1
	last := q[n]
	q[n] = event{} // release the callback
	q = q[:n]
	*h = q
	if n == 0 {
		return top
	}
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && q[r].before(&q[c]) {
			c = r
		}
		if !q[c].before(&last) {
			break
		}
		q[i] = q[c]
		i = c
	}
	q[i] = last
	return top
}

// Engine is the simulation clock and scheduler. Not safe for concurrent
// use: a simulation runs on one goroutine by design (determinism).
type Engine struct {
	now  Time
	heap eventHeap
	seq  uint64
}

// NewEngine returns an engine at time zero.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// At schedules fn at absolute time t (>= Now).
func (e *Engine) At(t Time, fn func()) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling into the past (%d < %d)", t, e.now))
	}
	e.seq++
	e.heap.push(event{at: t, seq: e.seq, fn: fn})
}

// After schedules fn d nanoseconds from now.
func (e *Engine) After(d Time, fn func()) { e.At(e.now+d, fn) }

// Step executes the next event; it returns false when none remain.
func (e *Engine) Step() bool {
	if len(e.heap) == 0 {
		return false
	}
	ev := e.heap.pop()
	e.now = ev.at
	ev.fn()
	return true
}

// Run executes events until the queue is empty.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// RunUntil executes events with time <= t, then sets the clock to t.
func (e *Engine) RunUntil(t Time) {
	for len(e.heap) > 0 && e.heap[0].at <= t {
		e.Step()
	}
	if e.now < t {
		e.now = t
	}
}

// Pending returns the number of scheduled events.
func (e *Engine) Pending() int { return len(e.heap) }

// Server is a single-server FIFO queue: jobs submitted while the server is
// busy wait in order; an optional queue capacity causes overflow drops (the
// paper's "stream input loss", Definition 4).
type Server struct {
	eng      *Engine
	name     string
	capacity int // pending-job cap; 0 = unbounded
	nextFree Time
	pending  int

	// BusyNS accumulates service time (for utilisation).
	BusyNS int64
	// WaitNS accumulates queueing delay: time accepted jobs spent between
	// submission and service start (the stall the bottleneck analyzer
	// attributes to this server).
	WaitNS int64
	// Served counts completed jobs.
	Served int64
	// Dropped counts capacity overflows.
	Dropped int64
	// peakQueue tracks the max pending backlog observed.
	peakQueue int
}

// NewServer creates a server on the engine. capacity bounds the number of
// queued (not yet started) jobs; 0 means unbounded.
func NewServer(eng *Engine, name string, capacity int) *Server {
	return &Server{eng: eng, name: name, capacity: capacity}
}

// Submit enqueues a job with the given service time; onDone (may be nil)
// runs at completion. It returns false if the queue is full (job dropped).
func (s *Server) Submit(service Time, onDone func()) bool {
	if service < 0 {
		panic(fmt.Sprintf("sim: negative service time on %s", s.name))
	}
	if s.capacity > 0 && s.pending >= s.capacity {
		s.Dropped++
		return false
	}
	s.pending++
	if s.pending > s.peakQueue {
		s.peakQueue = s.pending
	}
	start := s.nextFree
	if start < s.eng.now {
		start = s.eng.now
	}
	s.WaitNS += start - s.eng.now
	done := start + service
	s.nextFree = done
	s.BusyNS += service
	s.eng.At(done, func() {
		s.pending--
		s.Served++
		if onDone != nil {
			onDone()
		}
	})
	return true
}

// Delay returns how long a job submitted now would wait before service.
func (s *Server) Delay() Time {
	if s.nextFree <= s.eng.now {
		return 0
	}
	return s.nextFree - s.eng.now
}

// QueueLen returns the number of jobs submitted but not yet completed.
func (s *Server) QueueLen() int { return s.pending }

// PeakQueue returns the highest backlog observed.
func (s *Server) PeakQueue() int { return s.peakQueue }

// Utilization returns busy time divided by elapsed time.
func (s *Server) Utilization() float64 {
	if s.eng.now == 0 {
		return 0
	}
	u := float64(s.BusyNS) / float64(s.eng.now)
	if u > 1 {
		u = 1
	}
	return u
}

// RNG wraps a seeded source with the distributions the workloads need.
type RNG struct {
	r *rand.Rand
}

// NewRNG returns a deterministic RNG for the seed.
func NewRNG(seed int64) *RNG { return &RNG{r: rand.New(rand.NewSource(seed))} }

// Exp draws an exponential interarrival time (ns) for a rate in events/sec.
func (g *RNG) Exp(ratePerSec float64) Time {
	if ratePerSec <= 0 {
		panic("sim: non-positive rate")
	}
	d := -math.Log(1-g.r.Float64()) / ratePerSec * 1e9
	if d < 1 {
		d = 1
	}
	return Time(d)
}

// Float returns a uniform float64 in [0, 1).
func (g *RNG) Float() float64 { return g.r.Float64() }

// Arrivals drives a (possibly time-varying) arrival process: rate(now)
// gives the instantaneous rate in events/sec; each arrival invokes fn. The
// process stops when rate returns 0 or the engine passes stopAt.
func Arrivals(eng *Engine, g *RNG, stopAt Time, rate func(now Time) float64, fn func()) {
	var tick func()
	tick = func() {
		if eng.Now() >= stopAt {
			return
		}
		r := rate(eng.Now())
		if r <= 0 {
			return
		}
		eng.After(g.Exp(r), func() {
			if eng.Now() >= stopAt {
				return
			}
			fn()
			tick()
		})
	}
	tick()
}
