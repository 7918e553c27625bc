package dsps

import (
	"fmt"
	"time"
)

// The monitor loop (DESIGN §16). Whale's dynamic layer needs one place that
// decides, in one order, what the cluster looks like (paper §3.4: a new
// structure is distributed, acked by every member, and only then
// activated). Here that place is one goroutine on the monitor worker. It
// owns — and is the only code that touches — the liveness state machine,
// the epoch / restore / rescale-plan state of the checkpoint coordinator,
// every multicast group's d* controller, membership and tree-version
// ledger, the pending-join and heartbeat-stop maps, and the autoscaler's
// hysteresis and decision ring. None of that state carries a lock: every
// transition is a handler run by this loop, so interleavings between
// "coordinators" do not exist, only orderings of events.
//
// The data plane never waits on the loop. It reads atomics only (the dead
// and joined flags, the placement view, the applied rescale plan, the tree
// versions) and posts into an unbounded mailbox, so a dispatch or executor
// goroutine can never wedge behind a loop that is itself blocked in
// enqueueSend distributing a CtrlTree. The only waiters are callers of the
// public API that reads or changes loop state and a spout on its way out.

// Mailbox events — the loop's whole input alphabet besides its four
// periods, which arrive as the tick events below.
type (
	// snapAck is one task's snapshot or restore acknowledgement (CtrlSnapAck,
	// or posted directly by executors local to the monitor).
	snapAck struct {
		dir   byte
		task  int32
		epoch int64
	}
	// treeAck is one member's CtrlAck of a tree version, as received by the
	// group's source worker.
	treeAck struct{ group, version, node int32 }
	// ctrlJoin is a joiner's CtrlJoin as received by the monitor worker.
	ctrlJoin struct{ node, attempt int32 }
	// ctrlWelcome is the monitor's CtrlWelcome as received by the joiner.
	ctrlWelcome struct{ node int32 }
	// spoutExit reports that a source executor's loop ended; reply is closed
	// once its queue is drained and no further marker can land in it.
	spoutExit struct {
		ex    *executor
		reply chan struct{}
	}
	// request runs fn on the loop on behalf of the public API (JoinWorker,
	// LeaveWorker, Rescale, Membership, AutoscaleReport, ActiveDstar); reply
	// is closed when fn has returned.
	request struct {
		fn    func()
		reply chan struct{}
	}

	sweepTick time.Time // HeartbeatInterval: advance the liveness machine
	epochTick struct{}  // CheckpointInterval: advance the epoch machine
	scaleTick int64     // Autoscale.Interval: one autoscaler round (UnixNano)
	ctrlTick  time.Time // MonitorInterval: one d* controller round
)

type monitor struct {
	eng *Engine

	mailbox *mailbox[any]
	done    chan struct{} // closed when the loop has exited

	// Loop-owned membership state.
	joining map[int32]chan struct{} // JoinWorker calls awaiting their CtrlWelcome
	hbStops map[int32]chan struct{} // per-join heartbeat stop channels

	lastCtrl time.Time // end of the previous d* controller round
}

func newMonitor(e *Engine) *monitor {
	return &monitor{
		eng:     e,
		mailbox: newMailbox[any](),
		done:    make(chan struct{}),
		joining: map[int32]chan struct{}{},
		hbStops: map[int32]chan struct{}{},
	}
}

// post hands ev to the loop. Safe from any goroutine; never blocks.
func (m *monitor) post(ev any) { m.mailbox.put(ev) }

// do runs a mutating request on the loop; once the loop has exited it fails
// fast instead.
func (m *monitor) do(fn func() error) error {
	var err error
	if !m.ask(func() { err = fn() }) {
		return fmt.Errorf("dsps: engine stopped")
	}
	return err
}

// read runs a read-only request on the loop — or inline once the loop has
// exited, the state being quiescent from then on.
func (m *monitor) read(fn func()) {
	if !m.ask(fn) {
		fn()
	}
}

// ask runs fn on the loop and waits for it. It reports false, without fn
// having run, when the loop has exited.
func (m *monitor) ask(fn func()) bool {
	r := request{fn: fn, reply: make(chan struct{})}
	m.post(r)
	select {
	case <-r.reply:
		return true
	case <-m.done:
	}
	// The loop may have served the request on its last turn.
	select {
	case <-r.reply:
		return true
	default:
		return false
	}
}

// spoutExited is called by a source executor's goroutine as it ends. It
// waits for the loop to take note, so that once the spout is gone no epoch
// opens against it and nothing is left queued to it.
func (m *monitor) spoutExited(ex *executor) {
	ev := spoutExit{ex: ex, reply: make(chan struct{})}
	m.post(ev)
	select {
	case <-ev.reply:
	case <-m.done:
	}
}

// run is the loop. It exits on stopTick — after Stop has waited for the
// spouts, so every spoutExit posted by StopSpouts is answered.
func (m *monitor) run() {
	e := m.eng
	defer e.auxWG.Done()
	defer close(m.done)
	var sweepC, epochC, scaleC, ctrlC <-chan time.Time
	if e.detector != nil {
		t := time.NewTicker(e.cfg.HeartbeatInterval)
		defer t.Stop()
		sweepC = t.C
	}
	if e.ckpt != nil {
		t := time.NewTicker(e.cfg.CheckpointInterval)
		defer t.Stop()
		epochC = t.C
	}
	if e.scaler != nil {
		t := time.NewTicker(e.cfg.Autoscale.Interval)
		defer t.Stop()
		scaleC = t.C
	}
	for _, mgr := range e.managers {
		if mgr.adaptive {
			t := time.NewTicker(e.cfg.MonitorInterval)
			defer t.Stop()
			ctrlC, m.lastCtrl = t.C, time.Now()
			break
		}
	}
	for {
		select {
		case <-e.stopTick:
			return
		case <-m.mailbox.kick:
			for _, ev := range m.mailbox.take() {
				m.handle(ev)
				m.mailbox.done()
			}
		case now := <-sweepC:
			m.handle(sweepTick(now))
		case <-epochC:
			m.handle(epochTick{})
		case now := <-scaleC:
			m.handle(scaleTick(now.UnixNano()))
		case now := <-ctrlC:
			m.handle(ctrlTick(now))
		}
	}
}

// handle is the state machine's single step: every transition of monitor-
// owned state happens inside one call of it, on the loop goroutine.
func (m *monitor) handle(ev any) {
	e := m.eng
	switch ev := ev.(type) {
	case snapAck:
		e.ckpt.handleAck(ev.dir, ev.task, ev.epoch)
	case treeAck:
		e.managers[ev.group].handleAck(ev.version, ev.node)
	case ctrlJoin:
		m.onJoin(ev)
	case ctrlWelcome:
		m.onWelcome(ev.node)
	case spoutExit:
		e.ckpt.noteSpoutExit(ev.ex)
		close(ev.reply)
	case request:
		ev.fn()
		close(ev.reply)
	case sweepTick:
		e.detector.sweep(time.Time(ev))
	case epochTick:
		e.ckpt.tick()
	case scaleTick:
		e.scaler.tick(int64(ev))
	case ctrlTick:
		m.ctrlRound(time.Time(ev))
	}
}

// ctrlRound steps every adaptive group's controller, in group-id order, over
// the time since the previous round: a ticker drops ticks for a late
// receiver, so the nominal MonitorInterval would over-read the rate.
func (m *monitor) ctrlRound(now time.Time) {
	sec := now.Sub(m.lastCtrl).Seconds()
	if sec <= 0 {
		return // a stale tick spans no time, and a rate needs some
	}
	m.lastCtrl = now
	for _, desc := range m.eng.groupDescs {
		if mgr := m.eng.managers[desc.id]; mgr.adaptive {
			mgr.tick(sec)
		}
	}
}
