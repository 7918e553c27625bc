package dsps

import (
	"slices"
	"testing"
	"time"

	"whale/internal/chaos"
	"whale/internal/obs"
	"whale/internal/transport"
	"whale/internal/tuple"
)

// TestCreditFlowAllGroupingExactlyOnce runs the full multicast path under a
// small credit window: delivery must stay exactly-once, grants must actually
// flow, and after quiescence every link's outstanding debt must converge to
// zero (the cumulative rebroadcast heals any grant lost to shutdown races).
func TestCreditFlowAllGroupingExactlyOnce(t *testing.T) {
	const n, parallelism, workers = 300, 8, 4
	cap := newCapture()
	b := NewTopologyBuilder()
	b.Spout("src", func() Spout { return &countSpout{n: n, keys: 10} }, 1)
	b.Bolt("match", func() Bolt { return &captureBolt{cap: cap} }, parallelism).All("src")
	topo, _ := b.Build()
	eng, err := Start(topo, Config{
		Workers: workers, Network: transport.NewInprocNetwork(0),
		Comm: WorkerOriented, Multicast: MulticastNonBlocking,
		FixedDstar: true, InitialDstar: 2,
		CreditWindow: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng.WaitSpouts()
	if !eng.Drain(15 * time.Second) {
		eng.Stop()
		t.Fatal("engine did not drain")
	}
	// Outstanding converges to zero while the engine is still live: grants
	// for everything drained are either already merged or re-delivered by
	// the periodic cumulative rebroadcast.
	deadline := time.Now().Add(5 * time.Second)
	settled := false
	for !settled && time.Now().Before(deadline) {
		settled = true
		for _, ls := range eng.LinkStats() {
			if ls.Outstanding != 0 || ls.Queued != 0 {
				settled = false
			}
		}
		if !settled {
			time.Sleep(5 * time.Millisecond)
		}
	}
	stats := eng.LinkStats()
	eng.Stop()
	if !settled {
		t.Fatalf("links never settled: %+v", stats)
	}
	if len(stats) == 0 {
		t.Fatal("no flow-controlled links created")
	}
	for _, ls := range stats {
		if ls.Shed != 0 {
			t.Fatalf("link %d->%d shed %d tuples under ShedBlock", ls.From, ls.To, ls.Shed)
		}
	}
	cap.exactlyOnce(t, eng.assign.TasksOf["match"], n)
	if eng.Metrics().CreditGrants.Value() == 0 {
		t.Fatal("no credit grants were sent")
	}
	if eng.Metrics().TuplesShed.Value() != 0 {
		t.Fatalf("shed %d tuples under ShedBlock", eng.Metrics().TuplesShed.Value())
	}
}

// runShedTopology drives n fast-emitted tuples at one slow remote bolt task
// through a tiny credit window and link queue, so the link must overflow.
func runShedTopology(t *testing.T, n int, policy ShedPolicy) (*Engine, *capture) {
	t.Helper()
	cap := newCapture()
	b := NewTopologyBuilder()
	b.Spout("src", func() Spout { return &countSpout{n: n, keys: 4} }, 1)
	b.Bolt("sink", func() Bolt { return &slowBolt{cap: cap, delay: 2 * time.Millisecond} }, 1).Global("src")
	topo, _ := b.Build()
	eng, err := Start(topo, Config{
		Workers: 2, Network: transport.NewInprocNetwork(0), Comm: WorkerOriented,
		// Admission-time grants: the slow bolt throttles the link only
		// once its small input queue is full.
		CreditWindow: 4, LinkQueueCap: 8, ExecutorQueueCap: 2, ShedPolicy: policy,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng.WaitSpouts()
	if !eng.Drain(15 * time.Second) {
		eng.Stop()
		t.Fatal("engine did not drain")
	}
	eng.Stop()
	return eng, cap
}

// TestShedNewestAccountsEveryDrop: under ShedNewest, overflow drops are
// counted exactly — delivered plus shed equals emitted, nothing vanishes
// silently.
func TestShedNewestAccountsEveryDrop(t *testing.T) {
	const n = 400
	eng, cap := runShedTopology(t, n, ShedNewest)
	shed := eng.Metrics().TuplesShed.Value()
	if shed == 0 {
		t.Fatal("overload never shed: the test did not exercise the policy")
	}
	if got := int64(cap.total()) + shed; got != n {
		t.Fatalf("delivered %d + shed %d = %d, want %d", cap.total(), shed, got, n)
	}
	// Per-link accounting matches the global counter.
	var linkShed int64
	for _, ls := range eng.LinkStats() {
		linkShed += ls.Shed
	}
	if linkShed != shed {
		t.Fatalf("links account %d shed, metrics say %d", linkShed, shed)
	}
}

// TestShedOldestKeepsNewest: ShedOldest evicts from the queue head, so the
// most recent tuples survive — in particular the final one emitted.
func TestShedOldestKeepsNewest(t *testing.T) {
	const n = 400
	eng, cap := runShedTopology(t, n, ShedOldest)
	shed := eng.Metrics().TuplesShed.Value()
	if shed == 0 {
		t.Fatal("overload never shed: the test did not exercise the policy")
	}
	if got := int64(cap.total()) + shed; got != n {
		t.Fatalf("delivered %d + shed %d, want total %d", cap.total(), shed, n)
	}
	// The last emitted tuple entered a full queue by evicting the oldest —
	// it must have been delivered, not dropped.
	task := eng.assign.TasksOf["sink"][0]
	cap.mu.Lock()
	sawLast := false
	for _, seq := range cap.byTask[task] {
		if seq == n-1 {
			sawLast = true
		}
	}
	cap.mu.Unlock()
	if !sawLast {
		t.Fatalf("ShedOldest dropped the newest tuple (seq %d)", n-1)
	}
}

// TestAckedTuplesNeverShed: with acking on, tracked tuples always block
// regardless of the shed policy — zero loss end to end, zero shed.
func TestAckedTuplesNeverShed(t *testing.T) {
	const n = 150
	spout := &reliableSpout{n: n}
	eng := startAckTopology(t, spout, &ackingBolt{forward: true}, Config{
		Comm:         WorkerOriented,
		CreditWindow: 4, LinkQueueCap: 8, ShedPolicy: ShedNewest,
		// The spout's queue must hold an ack event for every tree in flight:
		// with fewer seats than MaxSpoutPending the local acker can block on
		// it while the spout blocks emitting to the acker, and neither moves.
		ExecutorQueueCap: 64, MaxSpoutPending: 32,
	})
	eng.WaitSpouts()
	eng.Stop()
	acked, failed := spout.counts()
	if acked != n || failed != 0 {
		t.Fatalf("acked=%d failed=%d, want %d/0", acked, failed, n)
	}
	if shed := eng.Metrics().TuplesShed.Value(); shed != 0 {
		t.Fatalf("shed %d acked tuples", shed)
	}
}

// stallBolt blocks a long time on its first tuple, then runs at full speed:
// one continuous credit starvation, then recovery.
type stallBolt struct {
	cap     *capture
	stall   time.Duration
	stalled bool
	ctx     *TaskContext
}

func (b *stallBolt) Prepare(ctx *TaskContext) { b.ctx = ctx }
func (b *stallBolt) Execute(tp *tuple.Tuple, _ *Collector) {
	if !b.stalled {
		b.stalled = true
		time.Sleep(b.stall)
	}
	b.cap.record(b.ctx.TaskID, tp.Int(0))
}
func (b *stallBolt) Cleanup() {}

// TestLinkPauseDegradeReopen drives one link through the full overload
// lifecycle: credit starvation pauses it, a sustained pause reports the
// subscriber degraded through the failure detector (advisory — never
// fencing), and recovery reopens the link and clears the mark.
func TestLinkPauseDegradeReopen(t *testing.T) {
	scope := obs.NewScope(obs.Config{})
	cap := newCapture()
	b := NewTopologyBuilder()
	b.Spout("src", func() Spout { return &countSpout{n: 300, keys: 4} }, 1)
	b.Bolt("sink", func() Bolt { return &stallBolt{cap: cap, stall: 400 * time.Millisecond} }, 1).Global("src")
	topo, _ := b.Build()
	eng, err := Start(topo, Config{
		Workers: 2, Network: transport.NewInprocNetwork(0), Comm: WorkerOriented,
		// Small executor queue: grants are issued on admission, so the
		// stalled bolt must fill its input queue before the sender starves.
		CreditWindow: 4, LinkQueueCap: 16, ExecutorQueueCap: 2,
		PauseAfter: 30 * time.Millisecond, DegradedAfter: 60 * time.Millisecond,
		CreditTimeout:     5 * time.Second,
		HeartbeatInterval: 20 * time.Millisecond, SuspectAfter: time.Minute,
		Obs: scope,
	})
	if err != nil {
		t.Fatal(err)
	}
	sender := eng.assign.WorkerOf[eng.assign.TasksOf["src"][0]]
	slow := eng.assign.WorkerOf[eng.assign.TasksOf["sink"][0]]
	if sender == slow {
		eng.Stop()
		t.Fatalf("spout and sink landed on the same worker (%d)", sender)
	}

	// The degraded mark must appear while the bolt is stalled...
	deadline := time.Now().Add(10 * time.Second)
	for len(eng.DegradedWorkers()) == 0 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if got := eng.DegradedWorkers(); len(got) != 1 || got[0] != slow {
		eng.Stop()
		t.Fatalf("degraded workers = %v, want [%d]", got, slow)
	}
	// ...and must never leak into the fencing state machine.
	if len(eng.DeadWorkers()) != 0 {
		eng.Stop()
		t.Fatal("overload pause fenced a live worker")
	}

	eng.WaitSpouts()
	if !eng.Drain(15 * time.Second) {
		eng.Stop()
		t.Fatal("engine did not drain after the stall")
	}
	// Recovery: the link reopens and the degraded mark clears.
	deadline = time.Now().Add(5 * time.Second)
	for len(eng.DegradedWorkers()) != 0 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if got := eng.DegradedWorkers(); len(got) != 0 {
		eng.Stop()
		t.Fatalf("degraded mark never cleared: %v", got)
	}
	eng.Stop()

	if eng.Metrics().LinkPauses.Value() == 0 {
		t.Fatal("no link pause recorded")
	}
	if cap.total() != 300 {
		t.Fatalf("delivered %d of 300 under ShedBlock", cap.total())
	}
	// The event log tells the story in order: paused -> degraded -> open.
	var seq []string
	for _, ev := range scope.Events.Recent(0) {
		switch ev.Kind {
		case obs.EventLinkPaused, obs.EventWorkerDegraded, obs.EventLinkOpen:
			if ev.Kind == obs.EventLinkPaused && (ev.Worker != sender || ev.Peer != slow) {
				t.Fatalf("pause event endpoints %d->%d, want %d->%d", ev.Worker, ev.Peer, sender, slow)
			}
			if ev.Kind == obs.EventWorkerDegraded && ev.Worker != slow {
				t.Fatalf("degraded event names worker %d, want %d", ev.Worker, slow)
			}
			seq = append(seq, ev.Kind)
		}
	}
	want := []string{obs.EventLinkPaused, obs.EventWorkerDegraded, obs.EventLinkOpen}
	for i, k := range want {
		if i >= len(seq) || seq[i] != k {
			t.Fatalf("event sequence %v, want prefix %v", seq, want)
		}
	}
}

// TestBackpressureMetricsRegistered: the flow-control counters are visible
// through the observability registry under their documented names.
func TestBackpressureMetricsRegistered(t *testing.T) {
	scope := obs.NewScope(obs.Config{})
	b := NewTopologyBuilder()
	b.Spout("src", func() Spout { return &countSpout{n: 10, keys: 2} }, 1)
	b.Bolt("x", func() Bolt { return &captureBolt{cap: newCapture()} }, 2).All("src")
	topo, _ := b.Build()
	eng := runUntilDrained(t, topo, Config{
		Workers: 2, Network: transport.NewInprocNetwork(0), Comm: WorkerOriented,
		CreditWindow: 8, Obs: scope,
	})
	_ = eng
	snap := scope.Reg.Snapshot()
	for _, name := range []string{
		"dsps.credits_waited", "dsps.credit_wait_ns", "dsps.credit_timeouts",
		"dsps.credit_grants", "dsps.tuples_shed", "dsps.link_paused",
		"dsps.drain_timeouts",
	} {
		if _, ok := snap.Counters[name]; !ok {
			t.Fatalf("counter %q not registered (have %v)", name, snap.Counters)
		}
	}
	if snap.Counters["dsps.credit_grants"] == 0 {
		t.Fatal("dsps.credit_grants stayed zero through a flow-controlled run")
	}
}

// TestStopUnblocksSendRetryBackoff is the regression test for send-retry
// backoff being bounded by engine lifetime: with a severed link and a long
// retry schedule, Stop must interrupt the backoff wait instead of sleeping
// it out per queued send.
func TestStopUnblocksSendRetryBackoff(t *testing.T) {
	net := chaos.Wrap(transport.NewInprocNetwork(0), chaos.Config{Seed: 1})
	net.Partition(0, 1)
	cap := newCapture()
	b := NewTopologyBuilder()
	b.Spout("src", func() Spout { return &countSpout{n: 20, keys: 2} }, 1)
	b.Bolt("sink", func() Bolt { return &captureBolt{cap: cap} }, 1).Global("src")
	topo, _ := b.Build()
	eng, err := Start(topo, Config{
		Workers: 2, Network: net, Comm: WorkerOriented,
		SendRetries: 10, SendRetryBase: 2 * time.Second,
		DrainTimeout: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng.WaitSpouts()
	time.Sleep(100 * time.Millisecond) // let the flow link enter a backoff wait
	t0 := time.Now()
	eng.Stop()
	if elapsed := time.Since(t0); elapsed > 1500*time.Millisecond {
		t.Fatalf("Stop took %v; send retry backoff is not bounded by shutdown", elapsed)
	}
}

// TestDrainTimeoutSurfaced is the regression test for the once-dropped
// Drain result inside Stop: a drain that cannot finish in time must bump
// dsps.drain_timeouts and log a drain-timeout event instead of vanishing.
func TestDrainTimeoutSurfaced(t *testing.T) {
	scope := obs.NewScope(obs.Config{})
	cap := newCapture()
	b := NewTopologyBuilder()
	b.Spout("src", func() Spout { return &countSpout{n: 8, keys: 2} }, 1)
	b.Bolt("sink", func() Bolt { return &slowBolt{cap: cap, delay: 100 * time.Millisecond} }, 1).Global("src")
	topo, _ := b.Build()
	eng, err := Start(topo, Config{
		Workers: 2, Network: transport.NewInprocNetwork(0), Comm: WorkerOriented,
		DrainTimeout: 50 * time.Millisecond,
		Obs:          scope,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng.WaitSpouts()
	eng.Stop() // 8 x 100ms of queued work cannot drain in 50ms
	if got := eng.Metrics().DrainTimeouts.Value(); got != 1 {
		t.Fatalf("drain timeouts = %d, want 1", got)
	}
	found := false
	for _, ev := range scope.Events.Recent(0) {
		if ev.Kind == obs.EventDrainTimeout {
			found = true
		}
	}
	if !found {
		t.Fatal("no drain-timeout event logged")
	}
}

// TestCreditGrantClampAndMerge: unit checks on the grant-merge rules — a
// replayed or corrupt cumulative grant can never inflate the window beyond
// what was charged, and stale grants never regress it.
func TestCreditGrantClampAndMerge(t *testing.T) {
	b := NewTopologyBuilder()
	b.Spout("src", func() Spout { return &countSpout{n: 0, keys: 1} }, 1)
	b.Bolt("x", func() Bolt { return &captureBolt{cap: newCapture()} }, 1).Global("src")
	topo, _ := b.Build()
	eng, err := Start(topo, Config{
		Workers: 2, Network: transport.NewInprocNetwork(0), Comm: WorkerOriented,
		CreditWindow: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Stop()
	var w *worker
	for _, cand := range eng.workers {
		if cand.fc != nil {
			w = cand
			break
		}
	}
	if w == nil {
		t.Fatal("flow control not enabled")
	}
	l := w.fc.linkTo((w.id + 1) % 2)
	l.mu.Lock()
	l.sent = 10
	l.mu.Unlock()
	w.fc.onGrant(l.dst, 25) // corrupt: more than ever charged
	l.mu.Lock()
	granted := l.granted
	l.mu.Unlock()
	if granted != 10 {
		t.Fatalf("granted = %d after over-grant, want clamp to sent (10)", granted)
	}
	w.fc.onGrant(l.dst, 3) // stale duplicate: must not regress
	l.mu.Lock()
	granted = l.granted
	l.mu.Unlock()
	if granted != 10 {
		t.Fatalf("granted = %d after stale grant, want 10", granted)
	}
}

// TestFlowLinkQueueHead: popBatch advances a head index and the queue
// restarts at the front of its array when it empties, so a steady
// push/popBatch cycle allocates nothing. FIFO order, the live range and
// ShedOldest's eviction hold across the slide that makes room in a full
// array. A window of one unit makes every batch a single item.
func TestFlowLinkQueueHead(t *testing.T) {
	l := &flowLink{fc: &flowControl{window: 1}, kick: make(chan struct{}, 1), space: make(chan struct{}, 1)}
	var batch []flowItem
	pop := func() int64 {
		var ok bool
		batch, ok = l.popBatch(batch[:0])
		if !ok || len(batch) != 1 {
			t.Fatalf("popBatch on a non-empty queue: %d items (ok %v), want 1", len(batch), ok)
		}
		return batch[0].tuples
	}
	for i := int64(1); i <= 4; i++ {
		l.enqueue(flowItem{cost: 1, tuples: i, tracked: i == 3})
	}
	if a, b := pop(), pop(); a != 1 || b != 2 {
		t.Fatalf("popped %d, %d, want 1, 2", a, b)
	}
	// The popped slots ahead of head are zero items, untracked: eviction
	// must skip them, and the tracked 3, and take 4.
	if ev, ok := l.evictOldest(); !ok || ev.tuples != 4 {
		t.Fatalf("evicted %+v (ok %v), want item 4", ev, ok)
	}
	arr := cap(l.queue)
	l.enqueue(flowItem{cost: 1, tuples: 5})
	l.enqueue(flowItem{cost: 1, tuples: 6}) // full array, head > 0: slides instead of growing
	if cap(l.queue) != arr || len(l.live()) != 3 {
		t.Fatalf("cap %d (was %d), %d live, want the same array and 3 live", cap(l.queue), arr, len(l.live()))
	}
	for _, want := range []int64{3, 5, 6} {
		if got := pop(); got != want {
			t.Fatalf("popped %d, want %d", got, want)
		}
	}
	if len(l.queue) != 0 || l.head != 0 {
		t.Fatalf("emptied queue len %d head %d, want it restarted at 0", len(l.queue), l.head)
	}
	if _, ok := l.evictOldest(); ok {
		t.Fatal("evicted from an empty queue")
	}
}

// TestFlowLinkBatchStopsAtWindow: popBatch takes the head item and every
// item behind it the credit window still admits, and stops at the first
// one it cannot admit — even when a later, cheaper one would fit. A
// credit-starved link pops its head alone; what stays queued is all
// ShedOldest can evict, and busy counts the popped batch. A push/popBatch
// cycle allocates nothing.
func TestFlowLinkBatchStopsAtWindow(t *testing.T) {
	l := &flowLink{fc: &flowControl{window: 4}, kick: make(chan struct{}, 1), space: make(chan struct{}, 1)}
	var batch []flowItem
	pop := func() []int64 {
		var ok bool
		batch, ok = l.popBatch(batch[:0])
		if !ok {
			t.Fatal("popBatch on a non-empty queue failed")
		}
		if got := l.busy.Load(); got != int32(len(batch)) {
			t.Fatalf("busy = %d with %d items popped", got, len(batch))
		}
		var ids []int64
		for _, it := range batch {
			ids = append(ids, it.tuples)
		}
		return ids
	}
	push := func(id, cost int64, tracked bool) {
		l.enqueue(flowItem{tuples: id, cost: cost, tracked: tracked})
	}
	want := func(got []int64, ids ...int64) {
		t.Helper()
		if !slices.Equal(got, ids) {
			t.Fatalf("popped %v, want %v", got, ids)
		}
	}

	// A window of 4 with nothing outstanding admits 1+2+1; the 3 that
	// follows does not fit, and neither does anything behind it this turn.
	push(1, 1, false)
	push(2, 2, false)
	push(3, 1, false)
	push(4, 3, false)
	push(5, 1, false)
	want(pop(), 1, 2, 3)
	if len(l.live()) != 2 {
		t.Fatalf("%d items left queued, want 2", len(l.live()))
	}

	// Starved: the 4 units charged for that batch are all outstanding. The
	// head still pops (it is the item that waits for credit), alone.
	l.sent = 4
	want(pop(), 4)
	// Three units outstanding after a partial grant: room for exactly one.
	l.granted = 1
	push(6, 1, false)
	want(pop(), 5)
	want(pop(), 6)

	// The head item is taken even when it alone exceeds the window.
	l.sent, l.granted = 0, 0
	push(7, 9, false)
	push(8, 1, false)
	want(pop(), 7)
	want(pop(), 8)

	// ShedOldest never evicts a popped item: only the queued tail is
	// eligible, and a tail that is all tracked is not evictable at all.
	push(9, 2, false)
	push(10, 2, false)
	push(11, 2, false)
	push(12, 2, true)
	want(pop(), 9, 10)
	if ev, ok := l.evictOldest(); !ok || ev.tuples != 11 {
		t.Fatalf("evicted %+v (ok %v), want the queued item 11", ev, ok)
	}
	if ev, ok := l.evictOldest(); ok {
		t.Fatalf("evicted %+v from a tail of tracked items", ev)
	}
	want(pop(), 12)

	allocs := testing.AllocsPerRun(200, func() {
		push(1, 1, false)
		push(2, 1, false)
		batch, _ = l.popBatch(batch[:0])
	})
	if allocs != 0 {
		t.Fatalf("a push/popBatch cycle allocates %.1f, want 0", allocs)
	}
}

// prepareGatedBolt blocks in Prepare until gate closes, so its executor
// takes nothing: past the inbox cap every remote tuple's unit stays owed.
type prepareGatedBolt struct{ gate <-chan struct{} }

func (b prepareGatedBolt) Prepare(*TaskContext)           { <-b.gate }
func (prepareGatedBolt) Execute(*tuple.Tuple, *Collector) {}
func (prepareGatedBolt) Cleanup()                         {}

// burstSpout emits n tuples, then parks in Next until release closes.
type burstSpout struct {
	n       int
	release <-chan struct{}
}

func (s *burstSpout) Open(*TaskContext) {}
func (s *burstSpout) Next(c *Collector) bool {
	if s.n == 0 {
		<-s.release
		return false
	}
	s.n--
	c.Emit(int64(s.n))
	return true
}
func (s *burstSpout) Close() {}

// TestControlNeverWaitsBehindData: a tree member whose send thread is parked
// behind a credit-starved link still installs and acks a CtrlTree, and
// still applies the CtrlCredit queued behind it on its one inbound handler.
// A handler that queued its CtrlAck on the full transfer queue would block
// there, with the grant that reopens the link stuck behind it, until Stop.
func TestControlNeverWaitsBehindData(t *testing.T) {
	gate, release := make(chan struct{}), make(chan struct{})
	b := NewTopologyBuilder()
	b.Spout("src", func() Spout { return &countSpout{} }, 1)                           // task 0, worker 0: the tree's source
	b.Spout("flood", func() Spout { return &burstSpout{n: 6, release: release} }, 1)   // task 1, worker 1: the member
	b.Bolt("gated", func() Bolt { return prepareGatedBolt{gate} }, 1).Shuffle("flood") // task 2, worker 2
	b.Bolt("mem", func() Bolt { return forwardBolt{} }, 2).All("src")                  // tasks 3, 4 on workers 0, 1
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	eng, err := Start(topo, Config{
		Workers: 3, Network: transport.NewInprocNetwork(0),
		Comm: WorkerOriented, Multicast: MulticastNonBlocking, MonitorInterval: time.Hour,
		TransferQueueCap: 1, LinkQueueCap: 1, CreditWindow: 1, CreditTimeout: time.Hour,
		ExecutorQueueCap: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		close(gate)
		close(release)
		eng.Stop()
	})
	link := func() LinkStat {
		for _, st := range eng.LinkStats() {
			if st.From == 1 && st.To == 2 {
				return st
			}
		}
		return LinkStat{}
	}
	// Worker 2 granted the first unit on admission and owes the second, so
	// the link holds one unit in flight. Of the six tuples, the third waits
	// for credit in the link's batch and the fourth fills its queue (both
	// count as Queued), the fifth is in the send thread's hands, its push
	// blocked, and the sixth fills the transfer queue.
	eventually(t, "the member's send thread parked", func() bool {
		st := link()
		return st.Sent == 2 && st.Queued == 2 && len(eng.workers[1].transfer) == 1
	})

	var mgr *mcManager
	for _, m := range eng.managers {
		mgr = m
	}
	var version int32
	ok := eng.mon.ask(func() {
		cur, _, _ := mgr.w.groups[mgr.desc.id].Load().activeTree()
		version = mgr.nextVersion
		mgr.distribute(cur.Clone(), mgr.members, tuple.SwitchScaleUp, "re-sent tree")
	})
	if !ok {
		t.Fatal("monitor loop exited")
	}
	member := eng.workers[1].groups[mgr.desc.id]
	eventually(t, "the member installed the tree", func() bool {
		_, ok := member.Load().versions[version]
		return ok
	})
	// The grant arrives behind the CtrlTree on the member's inbound handler.
	enc := tuple.NewEncoder()
	grant := tuple.ControlMessage{Type: tuple.CtrlCredit, Node: 2, Credits: 2}
	if err := eng.workers[2].tr.Send(1, enc.EncodeControlEnvelope(&grant)); err != nil {
		t.Fatal(err)
	}
	eventually(t, "the grant applied", func() bool {
		st := link()
		return st.Sent-st.Outstanding >= 2
	})
	source := mgr.w.groups[mgr.desc.id]
	eventually(t, "the source recorded the member's ack", func() bool {
		return source.Load().active == version
	})
}
