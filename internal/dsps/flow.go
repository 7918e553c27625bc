package dsps

import (
	"sync"
	"sync/atomic"
	"time"

	"whale/internal/obs"
	"whale/internal/transport"
	"whale/internal/tuple"
)

// This file implements the credit-based flow-control and overload-control
// subsystem. Every directed data link (sender worker -> destination worker)
// owns a credit window: the sender charges each outbound data message a cost
// in delivery units, and the receiver grants units back as its executors
// drain the corresponding tuples. Grants travel on the existing control
// path as CtrlCredit messages carrying the receiver's *cumulative* drained
// count, so they are idempotent and self-healing under loss, duplication
// and reordering. On top of credits, a waterline state machine classifies
// each link open -> throttled -> paused from queue depth and transport
// pressure, and a pluggable shed policy decides what happens to besteffort
// traffic when a link's queue is full; acked (tracked) tuples always block,
// never shed.

// ShedPolicy selects what a full flow-controlled link does with newly
// arriving best-effort tuples. Tracked (acked) tuples are never shed
// regardless of policy: reliability trees must observe every loss as a
// timeout, not a silent disappearance.
type ShedPolicy int

const (
	// ShedBlock blocks the producer until queue space frees (default).
	ShedBlock ShedPolicy = iota
	// ShedNewest drops the arriving tuple when the link queue is full.
	ShedNewest
	// ShedOldest evicts the oldest queued best-effort tuple to make room;
	// if everything queued is tracked it falls back to blocking.
	ShedOldest
)

func (p ShedPolicy) String() string {
	switch p {
	case ShedNewest:
		return "shed-newest"
	case ShedOldest:
		return "shed-oldest"
	}
	return "block"
}

// Link states for the waterline machine.
const (
	linkStateOpen int32 = iota
	linkStateThrottled
	linkStatePaused
)

func linkStateName(s int32) string {
	switch s {
	case linkStateThrottled:
		return "throttled"
	case linkStatePaused:
		return "paused"
	}
	return "open"
}

const (
	// highWaterline is the link depth percentage (queue occupancy or
	// transport pressure) at which an open link becomes throttled;
	// lowWaterline is the percentage at or below which a throttled or paused
	// link reopens, given available credit.
	highWaterline = 80
	lowWaterline  = 30

	// flowPoll bounds how long a credit-starved sender sleeps between
	// re-checks when no kick arrives (lost kicks are impossible, but grants
	// merged while the sender was deciding to sleep are not).
	flowPoll = 5 * time.Millisecond
	// creditRefreshInterval is the engine-wide cadence at which receivers
	// rebroadcast their cumulative drained counters. Cumulative grants make
	// the rebroadcast idempotent; it exists to heal grants lost in transit.
	creditRefreshInterval = 50 * time.Millisecond
)

// flowItem is one encoded message queued on a flow link.
type flowItem struct {
	raw []byte
	// buf is the pooled buffer backing raw (nil for non-pooled bytes, e.g.
	// relayed inbound payloads). The link owns one reference per queued item
	// and must release it on every exit: sent, suppressed, or shed.
	buf *sendBuf
	// cost is the delivery units the receiver will grant back for this
	// message; sender and receiver compute it by the same rule.
	cost int64
	// tuples is how many user tuples shedding this item loses (accounted in
	// dsps.tuples_shed).
	tuples int64
	// tracked marks messages carrying acked-stream tuples: never shed.
	tracked bool
	// traceID and pushedNS implement the sampled send-queue-wait stall
	// span: both are stamped at push time only when the payload carries a
	// sampled trace (zero otherwise), so untraced traffic pays nothing.
	traceID  int64
	pushedNS int64
}

// flowControl is one worker's half of the credit protocol: the outbound
// per-destination links (sender side) and the inbound per-source grant
// accumulators (receiver side). Both are fixed tables indexed by peer
// worker id, sized MaxWorkers at Start, so the per-tuple paths (push,
// grant, onGrant) reach a peer's state without a shared lock; a peer id
// from the wire is range-checked before it indexes either.
type flowControl struct {
	w *worker

	window        int64
	queueCap      int
	policy        ShedPolicy
	pauseAfter    time.Duration
	degradedAfter time.Duration
	creditTimeout time.Duration
	grantEvery    int64

	draining atomic.Bool

	links []atomic.Pointer[flowLink] // nil until the first push toward that peer
	in    []inboundCredit
	wg    sync.WaitGroup
}

// inboundCredit accumulates delivery units owed to one upstream sender.
type inboundCredit struct {
	mu          sync.Mutex //whale:lockrank 40
	drained     int64      // cumulative units drained; the value grants carry
	sinceGrant  int64      // units accumulated since the last grant was sent
	rebroadcast int64      // cumulative value carried by the last ticker rebroadcast
}

// flowLink is the sender side of one directed link: a bounded FIFO drained
// by a dedicated goroutine that spends credits before each send. One slow
// destination therefore stalls only its own link; siblings keep draining.
type flowLink struct {
	fc  *flowControl
	dst int32

	mu sync.Mutex //whale:lockrank 30
	// queue[head:] is the live FIFO; popBatch advances head instead of
	// reslicing, and the queue restarts at the front of its array when it
	// empties, so a steady push/popBatch cycle reuses one array.
	queue   []flowItem
	head    int
	sent    int64 // cumulative units charged for delivered-to-transport sends
	granted int64 // cumulative units granted back by the receiver
	shed    int64 // tuples shed on this link

	kick  chan struct{} // cap 1: new work or new credit
	space chan struct{} // cap 1: a queue slot freed

	state       atomic.Int32
	busy        atomic.Int32 // items popped in the current batch and not yet sent
	pausedSince time.Time    // guarded by mu; zero when not paused
	degraded    bool         // guarded by mu

	// Stall accounting (guarded by mu): cumulative sender time blocked on
	// the credit window, sampled FIFO residency of traced items, and
	// residency in the throttled/paused waterline states. stateSince marks
	// entry into the current non-open state (zero while open).
	creditWaitNS int64
	queueWaitNS  int64
	throttledNS  int64
	pausedNS     int64
	stateSince   time.Time
}

// signal makes ch readable without blocking (cap-1 edge-triggered signal).
func signal(ch chan struct{}) {
	select {
	case ch <- struct{}{}:
	default:
	}
}

func newFlowControl(w *worker) *flowControl {
	cfg := w.eng.cfg
	fc := &flowControl{
		w:             w,
		window:        int64(cfg.CreditWindow),
		queueCap:      cfg.LinkQueueCap,
		policy:        cfg.ShedPolicy,
		pauseAfter:    cfg.PauseAfter,
		degradedAfter: cfg.DegradedAfter,
		creditTimeout: cfg.CreditTimeout,
		links:         make([]atomic.Pointer[flowLink], cfg.MaxWorkers),
		in:            make([]inboundCredit, cfg.MaxWorkers),
	}
	fc.grantEvery = fc.window / 8
	if fc.grantEvery < 1 {
		fc.grantEvery = 1
	}
	return fc
}

// linkTo returns the flow link toward dst, creating it (and its sender
// goroutine) on first use.
func (fc *flowControl) linkTo(dst int32) *flowLink {
	slot := &fc.links[dst]
	if l := slot.Load(); l != nil {
		return l
	}
	l := &flowLink{
		fc:    fc,
		dst:   dst,
		kick:  make(chan struct{}, 1),
		space: make(chan struct{}, 1),
	}
	if !slot.CompareAndSwap(nil, l) {
		return slot.Load()
	}
	fc.wg.Add(1)
	go l.run()
	return l
}

// push enqueues one encoded message toward dst, applying the shed policy
// when the link queue is full. It blocks only under ShedBlock (or for
// tracked items), and always returns promptly once the engine is stopping.
// Time spent blocked on a full queue is accumulated in the worker's
// pushBlockedNS (send-thread-local) so emit-time accounting can exclude
// backpressure stalls.
//
//whale:owns it.buf
func (fc *flowControl) push(dst int32, it flowItem) {
	if fc.w.eng.workerDead(dst) {
		fc.w.eng.metrics.SendsSuppressed.Inc()
		it.buf.release()
		return
	}
	l := fc.linkTo(dst)
	// Sampled stall stamping: only a payload that carries a live trace id
	// pays for the peek and the timestamp (the peek itself is a fixed-
	// offset read, no decode, no allocation).
	if fc.w.eng.obs.Tracer.Enabled() {
		if id := tuple.PeekWorkerMessageTraceID(it.raw); id != 0 {
			it.traceID = id
			it.pushedNS = time.Now().UnixNano()
		}
	}
	var blocked time.Duration
	defer func() {
		if blocked > 0 {
			fc.w.pushBlockedNS += blocked.Nanoseconds()
		}
	}()
	for {
		l.mu.Lock()
		if len(l.live()) < fc.queueCap || fc.draining.Load() {
			l.enqueue(it)
			l.mu.Unlock()
			signal(l.kick)
			return
		}
		// Queue full: shed or block per policy. Tracked items always block.
		if !it.tracked {
			switch fc.policy {
			case ShedNewest:
				l.shed += it.tuples
				l.mu.Unlock()
				fc.w.eng.metrics.TuplesShed.Add(it.tuples)
				it.buf.release()
				return
			case ShedOldest:
				if evicted, ok := l.evictOldest(); ok {
					l.enqueue(it)
					l.shed += evicted.tuples
					l.mu.Unlock()
					fc.w.eng.metrics.TuplesShed.Add(evicted.tuples)
					evicted.buf.release()
					signal(l.kick)
					return
				}
				// Everything queued is tracked: fall through to block.
			}
		}
		l.mu.Unlock()
		t0 := time.Now()
		select {
		case <-l.space:
			blocked += time.Since(t0)
		case <-fc.w.done:
			it.buf.release()
			return
		case <-fc.w.eng.stopping:
			// Shutdown: accept over capacity so the drain still flushes it.
			l.mu.Lock()
			l.enqueue(it)
			l.mu.Unlock()
			signal(l.kick)
			return
		}
	}
}

// live is the queued range. Callers hold mu.
func (l *flowLink) live() []flowItem { return l.queue[l.head:] }

// enqueue appends it to the queue. When the array is full and popped slots
// sit ahead of the live range, it slides the range to the front instead of
// growing the array. Callers hold mu.
//
//whale:owns it.buf
func (l *flowLink) enqueue(it flowItem) {
	if len(l.queue) == cap(l.queue) && l.head > 0 {
		n := copy(l.queue, l.live())
		clear(l.queue[n:])
		l.queue, l.head = l.queue[:n], 0
	}
	l.queue = append(l.queue, it) //whale:transfers it.buf
}

// evictOldest removes the first best-effort item of the live range and
// returns it; ok is false when every queued item is tracked. Callers hold
// mu.
func (l *flowLink) evictOldest() (evicted flowItem, ok bool) {
	for i := l.head; i < len(l.queue); i++ {
		if !l.queue[i].tracked {
			evicted = l.queue[i]
			l.queue = append(l.queue[:i], l.queue[i+1:]...)
			return evicted, true
		}
	}
	return flowItem{}, false
}

// run is the link's sender goroutine: pop a batch, await credit for its
// head, send it, observe. Everything behind the head was admitted by the
// window when it was popped, so only the head can wait for credit, and the
// batch is charged to sent and re-evaluated against the waterlines once.
func (l *flowLink) run() {
	defer l.fc.wg.Done()
	var batch []flowItem
	for {
		var ok bool
		batch, ok = l.popBatch(batch[:0])
		if !ok {
			return
		}
		l.recordQueueWait(batch)
		l.awaitCredit(batch[0].cost, batch[0].traceID)
		var sent int64
		for i := range batch {
			it := &batch[i]
			if l.fc.w.sendTraced(l.dst, it.raw, it.traceID) {
				sent += it.cost
			}
			// The transport has copied (or dropped) the payload: recycle.
			it.buf.release()
		}
		clear(batch)
		l.mu.Lock()
		l.sent += sent
		l.mu.Unlock()
		l.busy.Store(0)
		l.observe()
	}
}

// recordQueueWait attributes the sampled send-queue-wait stall of the
// batch's traced items: their residency from push to pop. Untraced items
// carry no stamp, so an untraced batch reads no clock.
func (l *flowLink) recordQueueWait(batch []flowItem) {
	var now, total int64
	for i := range batch {
		it := &batch[i]
		if it.traceID == 0 || it.pushedNS == 0 {
			continue
		}
		if now == 0 {
			now = time.Now().UnixNano()
		}
		wait := now - it.pushedNS
		total += wait
		l.fc.w.eng.obs.Tracer.RecordHop(it.traceID, obs.StallSendQueueWait,
			l.fc.w.id, l.dst, 0, 0, 0, time.Unix(0, it.pushedNS), time.Duration(wait))
	}
	if now != 0 {
		l.mu.Lock()
		l.queueWaitNS += total
		l.mu.Unlock()
	}
}

// popBatch dequeues the head item and every item behind it that the credit
// window still admits (CreditWindow − (sent − granted), less what the batch
// already takes), appending them to batch. It stops at the first item the
// window cannot admit, so that item and everything behind it stay queued —
// visible to the waterline depth and to ShedOldest — and a credit-starved
// link pops its head item alone. It blocks until work arrives, and returns
// false once the link drains empty during shutdown.
func (l *flowLink) popBatch(batch []flowItem) ([]flowItem, bool) {
	for {
		l.mu.Lock()
		if l.head < len(l.queue) {
			room := l.fc.window - (l.sent - l.granted)
			for l.head < len(l.queue) {
				it := &l.queue[l.head]
				if len(batch) > 0 && it.cost > room {
					break
				}
				room -= it.cost
				batch = append(batch, *it)
				*it = flowItem{}
				l.head++
			}
			if l.head == len(l.queue) {
				l.queue, l.head = l.queue[:0], 0
			}
			l.busy.Store(int32(len(batch)))
			l.mu.Unlock()
			signal(l.space)
			return batch, true
		}
		l.mu.Unlock()
		if l.fc.draining.Load() {
			return batch, false
		}
		// No clock: close stores draining before it rings kick, and kick
		// is taken only on this goroutine (here and in awaitCredit), each
		// take followed by a draining check. So a close that lands after
		// the check above leaves kick full until this goroutine's next
		// take, which then sees draining. A push rings after it enqueues.
		<-l.kick
	}
}

// awaitCredit blocks until the link has window room for cost units, the
// credit timeout elapses (grant loss healing), or the engine stops. It also
// drives the pause/degraded transitions: a pause means one *continuous*
// credit wait exceeded pauseAfter — the receiver is effectively not
// draining, not merely slow.
func (l *flowLink) awaitCredit(cost int64, traceID int64) {
	fc := l.fc
	var t0 time.Time
	defer func() {
		if !t0.IsZero() {
			wait := time.Since(t0)
			fc.w.eng.metrics.CreditWaitNS.Add(wait.Nanoseconds())
			l.mu.Lock()
			l.creditWaitNS += wait.Nanoseconds()
			l.mu.Unlock()
			fc.w.eng.obs.Tracer.RecordHop(traceID, obs.StallCreditWait,
				fc.w.id, l.dst, 0, 0, 0, t0, wait)
		}
	}()
	for {
		if fc.draining.Load() || fc.w.eng.workerDead(l.dst) {
			return
		}
		l.mu.Lock()
		out := l.sent - l.granted
		l.mu.Unlock()
		if out <= 0 || out+cost <= fc.window {
			return
		}
		select {
		case <-fc.w.eng.stopping:
			return
		default:
		}
		now := time.Now()
		if t0.IsZero() {
			t0 = now
			fc.w.eng.metrics.CreditsWaited.Inc()
		}
		l.advancePause(now, now.Sub(t0))
		if now.Sub(t0) >= fc.creditTimeout {
			// The receiver has been silent for a full timeout: assume the
			// grants were lost in transit and forgive the debt, otherwise a
			// lossy control path wedges the link forever. The periodic
			// cumulative rebroadcast re-synchronizes the true value.
			fc.w.eng.metrics.CreditTimeouts.Inc()
			l.mu.Lock()
			l.granted = l.sent
			l.mu.Unlock()
			return
		}
		select {
		case <-l.kick:
		case <-time.After(flowPoll):
		case <-fc.w.done:
			return
		case <-fc.w.eng.stopping:
			return
		}
	}
}

// advancePause updates the pause/degraded state from one continuous credit
// wait of duration starved. Called only from the link goroutine.
func (l *flowLink) advancePause(now time.Time, starved time.Duration) {
	fc := l.fc
	l.mu.Lock()
	if l.pausedSince.IsZero() {
		if starved < fc.pauseAfter {
			l.mu.Unlock()
			return
		}
		l.pausedSince = now
		l.degraded = false
		if l.state.Load() == linkStateThrottled && !l.stateSince.IsZero() {
			l.throttledNS += now.Sub(l.stateSince).Nanoseconds()
		}
		l.stateSince = now
		l.state.Store(linkStatePaused)
		l.mu.Unlock()
		fc.w.eng.metrics.LinkPauses.Inc()
		fc.w.eng.obs.Events.Append(obs.Event{
			Kind: obs.EventLinkPaused, Worker: fc.w.id, Peer: l.dst,
			Detail: "credit-starved past pause threshold",
		})
		return
	}
	if !l.degraded && fc.degradedAfter > 0 && now.Sub(l.pausedSince) >= fc.degradedAfter {
		l.degraded = true
		paused := now.Sub(l.pausedSince)
		l.mu.Unlock()
		fc.w.eng.reportDegraded(fc.w.id, l.dst, paused)
		return
	}
	l.mu.Unlock()
}

// observe runs the waterline state machine after each batch: queue depth and
// transport pressure drive open -> throttled; drained-below-low plus
// available credit reopens a throttled or paused link.
func (l *flowLink) observe() {
	fc := l.fc
	l.mu.Lock()
	qlen := len(l.live())
	out := l.sent - l.granted
	wasDegraded := l.degraded
	paused := !l.pausedSince.IsZero()
	l.mu.Unlock()

	depth := 0
	if fc.queueCap > 0 {
		depth = qlen * 100 / fc.queueCap
	}
	if p := fc.w.tr.Pressure(transport.WorkerID(l.dst)); p > depth {
		depth = p
	}

	switch l.state.Load() {
	case linkStateOpen:
		if depth >= highWaterline {
			l.mu.Lock()
			l.stateSince = time.Now()
			l.mu.Unlock()
			l.state.Store(linkStateThrottled)
			fc.w.eng.obs.Events.Append(obs.Event{
				Kind: obs.EventLinkThrottled, Worker: fc.w.id, Peer: l.dst,
				QueueLen: qlen,
			})
		}
	case linkStateThrottled, linkStatePaused:
		if depth <= lowWaterline && out < fc.window {
			wasPaused := l.state.Load() == linkStatePaused
			l.state.Store(linkStateOpen)
			l.mu.Lock()
			if !l.stateSince.IsZero() {
				resid := time.Since(l.stateSince).Nanoseconds()
				if wasPaused {
					l.pausedNS += resid
				} else {
					l.throttledNS += resid
				}
				l.stateSince = time.Time{}
			}
			l.pausedSince = time.Time{}
			l.degraded = false
			l.mu.Unlock()
			if paused && wasDegraded {
				fc.w.eng.clearDegraded(l.dst)
			}
			fc.w.eng.obs.Events.Append(obs.Event{
				Kind: obs.EventLinkOpen, Worker: fc.w.id, Peer: l.dst,
				QueueLen: qlen,
			})
		}
	}
}

// grant accumulates n delivery units owed to sender src and flushes a
// cumulative grant once enough accumulate. n <= 0 and local sources are
// ignored by the caller (worker.grantData). The charge below is dynamic
// (batched): most calls bank the units and exit; the flush path ships them.
//
//whale:grants
func (fc *flowControl) grant(src int32, n int64) {
	in := &fc.in[src]
	in.mu.Lock()
	in.drained += n //whale:charged multi
	in.sinceGrant += n
	flush := in.sinceGrant >= fc.grantEvery
	var cum int64
	if flush {
		in.sinceGrant = 0
		cum = in.drained
	}
	in.mu.Unlock()
	if flush {
		fc.sendGrant(src, cum)
	}
}

// sendGrant ships one cumulative CtrlCredit directly on the transport,
// bypassing the transfer queue and the flow links: grants must flow even
// when every data path is congested, and must never consume credit
// themselves.
//
//whale:grants
func (fc *flowControl) sendGrant(to int32, cumulative int64) {
	w := fc.w
	if w.eng.workerDead(to) {
		return
	}
	cm := tuple.ControlMessage{Type: tuple.CtrlCredit, Node: w.id, Credits: cumulative}
	// Grants are frequent (one per window/8 deliveries per link) and sent
	// synchronously, so a pooled encoder elides the per-grant allocations.
	enc := tuple.AcquireEncoder()
	raw := enc.EncodeControlEnvelope(&cm)
	w.eng.metrics.CreditGrants.Inc()
	// Grant loss is tolerable: the cumulative rebroadcast and the sender's
	// credit timeout both heal it.
	_ = w.tr.Send(transport.WorkerID(to), raw)
	tuple.ReleaseEncoder(enc)
}

// rebroadcast resends every non-zero cumulative drained counter. Called on
// the engine's credit ticker; because grants are cumulative this is
// idempotent and heals any grant lost in transit.
func (fc *flowControl) rebroadcast() {
	for src := range fc.in {
		in := &fc.in[src]
		in.mu.Lock()
		// Resend only counters that moved since the last rebroadcast: a
		// steady stream of redundant grants competes with data for a slow
		// receiver's inbound queue and can starve the very link the grants
		// are meant to open. Each new value is still retransmitted once
		// after the inline grant, and a sender that loses both copies heals
		// through its credit timeout.
		cum := in.drained
		moved := cum > 0 && cum != in.rebroadcast
		if moved {
			in.sinceGrant = 0
			in.rebroadcast = cum
		}
		in.mu.Unlock()
		if moved {
			fc.sendGrant(int32(src), cum)
		}
	}
}

// onGrant merges one received cumulative grant into the link toward the
// granting worker. Duplicates and reordering are harmless (max-merge); the
// cumulative value is clamped to what was actually charged so a corrupt or
// replayed grant can never inflate the window.
func (fc *flowControl) onGrant(from int32, cumulative int64) {
	if from < 0 || int(from) >= len(fc.links) {
		return
	}
	l := fc.links[from].Load()
	if l == nil {
		return
	}
	l.mu.Lock()
	if cumulative > l.sent {
		cumulative = l.sent
	}
	if cumulative > l.granted {
		l.granted = cumulative
	}
	l.mu.Unlock()
	signal(l.kick)
}

// queued reports the total work not yet handed to the transport: queued
// items plus the popped batch still waiting for credit or the transport.
// Drain polls it.
func (fc *flowControl) queued() int {
	n := 0
	for i := range fc.links {
		if l := fc.links[i].Load(); l != nil {
			l.mu.Lock()
			n += len(l.live())
			l.mu.Unlock()
			n += int(l.busy.Load())
		}
	}
	return n
}

// close flushes and joins every link goroutine. Called after the transfer
// send loops have stopped, so no new pushes arrive; credit waits abort via
// eng.stopping, and popBatch returns false once the queue empties.
func (fc *flowControl) close() {
	fc.draining.Store(true)
	for i := range fc.links {
		if l := fc.links[i].Load(); l != nil {
			signal(l.kick)
			signal(l.space)
		}
	}
	fc.wg.Wait()
}

// LinkStat is one flow-controlled link's public snapshot.
type LinkStat struct {
	From, To    int32
	State       string
	Queued      int
	Outstanding int64 // delivery units charged but not yet granted back
	Shed        int64 // tuples shed on this link
	Sent        int64 // delivery units charged to the window so far

	// Stall attribution (cumulative): sender time blocked on the credit
	// window, sampled FIFO residency of traced items, and time spent in
	// the throttled/paused waterline states (including the current stint).
	CreditWaitNS int64
	QueueWaitNS  int64
	ThrottledNS  int64
	PausedNS     int64
}

// LinkStats snapshots every flow-controlled link, ordered by (From, To).
func (e *Engine) LinkStats() []LinkStat {
	var out []LinkStat
	for _, w := range e.workers {
		for dst := range w.fc.links {
			l := w.fc.links[dst].Load()
			if l == nil {
				continue
			}
			state := l.state.Load()
			l.mu.Lock()
			st := LinkStat{
				From:         w.id,
				To:           int32(dst),
				State:        linkStateName(state),
				Queued:       len(l.live()) + int(l.busy.Load()),
				Outstanding:  l.sent - l.granted,
				Shed:         l.shed,
				Sent:         l.sent,
				CreditWaitNS: l.creditWaitNS,
				QueueWaitNS:  l.queueWaitNS,
				ThrottledNS:  l.throttledNS,
				PausedNS:     l.pausedNS,
			}
			// Charge the current stint so a link wedged in a bad state shows
			// its residency before it ever transitions back.
			if !l.stateSince.IsZero() {
				resid := time.Since(l.stateSince).Nanoseconds()
				if state == linkStatePaused {
					st.PausedNS += resid
				} else if state == linkStateThrottled {
					st.ThrottledNS += resid
				}
			}
			l.mu.Unlock()
			out = append(out, st)
		}
	}
	return out
}

// creditTicker periodically rebroadcasts cumulative grants from every
// worker, healing grants lost to faults.
func (e *Engine) creditTicker() {
	defer e.auxWG.Done()
	ticker := time.NewTicker(creditRefreshInterval)
	defer ticker.Stop()
	for {
		select {
		case <-e.stopTick:
			return
		case <-ticker.C:
			for _, w := range e.workers {
				w.fc.rebroadcast()
			}
		}
	}
}

// reportDegraded surfaces a subscriber paused past the degraded threshold:
// an event for operators, plus an advisory degraded mark on the failure
// detector path (never a fencing decision — the worker is slow, not dead).
func (e *Engine) reportDegraded(from, peer int32, pausedFor time.Duration) {
	if fd := e.detector; fd != nil {
		fd.markDegraded(peer)
	}
	e.obs.Events.Append(obs.Event{
		Kind: obs.EventWorkerDegraded, Worker: peer, Peer: from,
		Detail: "subscriber paused for " + pausedFor.String(),
	})
}

// clearDegraded withdraws the advisory degraded mark once the link reopens.
func (e *Engine) clearDegraded(peer int32) {
	if fd := e.detector; fd != nil {
		fd.clearDegraded(peer)
	}
}

// DegradedWorkers lists workers currently marked degraded by the overload
// path (paused subscriber past DegradedAfter), ascending. Advisory only.
func (e *Engine) DegradedWorkers() []int32 {
	fd := e.detector
	if fd == nil {
		return nil
	}
	var out []int32
	for i := range fd.degraded {
		if fd.degraded[i].Load() {
			out = append(out, int32(i))
		}
	}
	return out
}
