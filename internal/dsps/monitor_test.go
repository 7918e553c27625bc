package dsps

import (
	"sort"
	"testing"
	"time"

	"whale/internal/obs"
	"whale/internal/transport"
	"whale/internal/tuple"
)

// Interleaving tests for the monitor loop. Each case feeds the loop one
// explicit sequence of events in a single turn and then checks the state it
// left. Nothing else moves that state: every period is an hour long, so no
// ticker fires, and the source is parked inside Next, so no task ever acks on
// its own before the fed acks have settled the matter (a real ack that
// arrives later is a duplicate and is ignored). No sleeps, no polling.

// parkedSpout blocks in Next until released, then reports exhaustion.
type parkedSpout struct{ release <-chan struct{} }

func (s *parkedSpout) Open(*TaskContext) {}
func (s *parkedSpout) Next(*Collector) bool {
	<-s.release
	return false
}
func (s *parkedSpout) Close() {}

// monitorRig is a 3-worker cluster plus dormant worker 3: src (task 0) on
// worker 0, sink tasks 1 and 2 on workers 1 and 2.
type monitorRig struct {
	t   *testing.T
	eng *Engine
	m   *monitor
	c   *checkpointCoordinator
}

func newMonitorRig(t *testing.T, autoscale bool) *monitorRig {
	t.Helper()
	release := make(chan struct{})
	b := NewTopologyBuilder()
	b.Spout("src", func() Spout { return &parkedSpout{release: release} }, 1)
	b.Bolt("sink", func() Bolt { return forwardBolt{} }, 2).Shuffle("src")
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Workers: 3, MaxWorkers: 4,
		Network:            transport.NewInprocNetwork(0),
		HeartbeatInterval:  time.Hour,
		CheckpointInterval: time.Hour,
	}
	if autoscale {
		cfg.Autoscale = AutoscaleConfig{Interval: time.Hour, Confirm: 1, Cooldown: time.Second}
	}
	eng, err := Start(topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		close(release)
		eng.Stop()
	})
	return &monitorRig{t: t, eng: eng, m: eng.mon, c: eng.ckpt}
}

// feed handles the events back to back in one turn of the loop, so nothing
// can interleave with the sequence.
func (r *monitorRig) feed(evs ...any) {
	r.t.Helper()
	ok := r.m.ask(func() {
		for _, ev := range evs {
			r.m.handle(ev)
		}
	})
	if !ok {
		r.t.Fatal("monitor loop exited")
	}
}

// call wraps fn as an event: a step of the sequence that is a plain call on
// the loop (a public-API request, or the sweep confirming a worker dead).
func call(fn func()) request { return request{fn: fn, reply: make(chan struct{})} }

// ackAll is the step "every task the coordinator is waiting for acks the
// phase it is in" — snapshot acks for the open epoch, or restore acks for
// the current wave's fence.
func (r *monitorRig) ackAll() request {
	return call(func() {
		dir, epoch := tuple.SnapAckSnapshot, r.c.epoch
		if r.c.restoring {
			dir, epoch = tuple.SnapAckRestore, r.c.fence
		}
		var tids []int32
		for tid := range r.c.expected {
			tids = append(tids, tid)
		}
		sort.Slice(tids, func(i, j int) bool { return tids[i] < tids[j] })
		for _, tid := range tids {
			r.m.handle(snapAck{dir: dir, task: tid, epoch: epoch})
		}
	})
}

// join is a complete CtrlJoin/CtrlWelcome handshake for worker id as the
// loop sees it.
func (r *monitorRig) join(id int32) []any {
	return []any{
		call(func() {
			if _, err := r.m.beginJoin(id); err != nil {
				r.t.Errorf("beginJoin(%d): %v", id, err)
			}
		}),
		ctrlJoin{node: id, attempt: 1},
		ctrlWelcome{node: id},
	}
}

func (r *monitorRig) sinkPar() int { return len(r.eng.tv().assign.TasksOf["sink"]) }

func TestMonitorLeaveThenPlanApply(t *testing.T) {
	r := newMonitorRig(t, false)
	var rescaleErr, leaveArmed, leaveApplied error
	steps := append(r.join(3),
		call(func() { rescaleErr = r.m.rescale("sink", 3, []int32{3}) }),
		// The target tries to leave while the plan is armed: rejected, so the
		// apply below can take its placement as still valid.
		call(func() { leaveArmed = r.m.leave(3) }),
		epochTick{}, // opens epoch 1, the plan's aligned epoch
		r.ackAll(),  // commit = the cut: plan applies, restore is armed
		call(func() { leaveApplied = r.m.leave(3) }),
		epochTick{}, // trees are quiet: restore wave 1 (bolts)
		r.ackAll(),  // wave 2 (source)
		r.ackAll(),  // restored: the plan commits
	)
	r.feed(steps...)
	if rescaleErr != nil {
		t.Fatalf("rescale: %v", rescaleErr)
	}
	if leaveArmed == nil {
		t.Fatal("placement target of an armed plan was allowed to leave")
	}
	if leaveApplied == nil {
		t.Fatal("worker hosting a rescaled task was allowed to leave")
	}
	if got := r.eng.tv().assign.LocalTasks(3); len(got) != 1 || r.sinkPar() != 3 {
		t.Fatalf("after the cut: worker 3 hosts %v, sink parallelism %d; want one task, 3", got, r.sinkPar())
	}
	if !r.eng.joinedWorker(3) {
		t.Fatal("placement target is no longer joined")
	}
	if n := countEvents(r.eng, obs.EventRescaleCommitted); n != 1 {
		t.Fatalf("rescale-committed events = %d, want 1", n)
	}
	r.feed(call(func() {
		if r.c.rescalePending() || r.c.restoring || r.c.recoverPending {
			t.Error("rescale or restore still pending after the last ack")
		}
		if p := r.c.applied.Load(); p == nil || !p.committed || p.epoch != 1 {
			t.Errorf("applied plan = %+v, want committed at epoch 1 and retained for the crash window", p)
		}
	}))
}

func TestMonitorPlanArmThenWorkerDeath(t *testing.T) {
	r := newMonitorRig(t, false)
	var rescaleErr, retryErr error
	r.feed(
		call(func() { rescaleErr = r.m.rescale("sink", 1, nil) }),
		epochTick{}, // aligned epoch 1 in flight
		call(func() { r.eng.onWorkerDead(2) }),
		// The plan died with the worker; these acks are for an epoch that no
		// longer exists and must not commit it, let alone apply anything.
		snapAck{dir: tuple.SnapAckSnapshot, task: 0, epoch: 1},
		snapAck{dir: tuple.SnapAckSnapshot, task: 1, epoch: 1},
		call(func() { retryErr = r.m.rescale("sink", 1, nil) }),
	)
	if rescaleErr != nil {
		t.Fatalf("rescale: %v", rescaleErr)
	}
	if retryErr == nil {
		t.Fatal("rescale accepted while recovery is pending")
	}
	if n := countEvents(r.eng, obs.EventRescaleAborted); n != 1 {
		t.Fatalf("rescale-aborted events = %d, want 1", n)
	}
	if r.sinkPar() != 2 {
		t.Fatalf("sink parallelism %d after an aborted shrink, want 2", r.sinkPar())
	}
	m := r.eng.Metrics()
	if m.EpochsAborted.Value() != 1 || m.EpochsCompleted.Value() != 0 {
		t.Fatalf("epochs aborted/completed = %d/%d, want 1/0", m.EpochsAborted.Value(), m.EpochsCompleted.Value())
	}
	if rep := r.eng.Membership(); rep.RescalePending || rep.Workers[2].State != "dead" {
		t.Fatalf("membership after the death: pending=%v worker2=%s", rep.RescalePending, rep.Workers[2].State)
	}
}

func TestMonitorStaleJoinAfterLeave(t *testing.T) {
	r := newMonitorRig(t, false)
	var leaveErr error
	steps := append(r.join(3),
		ctrlWelcome{node: 3}, // duplicate welcome: no-op
		call(func() { leaveErr = r.m.leave(3) }),
		ctrlJoin{node: 3, attempt: 2}, // the joiner's retry, delivered late
		ctrlWelcome{node: 3},
	)
	r.feed(steps...)
	if leaveErr != nil {
		t.Fatalf("leave: %v", leaveErr)
	}
	if r.eng.joinedWorker(3) {
		t.Fatal("stale CtrlJoin re-admitted a departed worker")
	}
	r.feed(call(func() {
		if len(r.m.joining) != 0 || len(r.m.hbStops) != 2 {
			t.Errorf("joining=%d heartbeats=%d after join+leave, want 0 and 2 (workers 1, 2)", len(r.m.joining), len(r.m.hbStops))
		}
	}))
	// A genuine rejoin still goes through.
	r.feed(r.join(3)...)
	if !r.eng.joinedWorker(3) {
		t.Fatal("rejoin after leave failed")
	}
	if j, l := countEvents(r.eng, obs.EventWorkerJoined), countEvents(r.eng, obs.EventWorkerLeft); j != 2 || l != 1 {
		t.Fatalf("joined/left events = %d/%d, want 2/1", j, l)
	}
}

func TestMonitorSnapAckForAbortedEpoch(t *testing.T) {
	r := newMonitorRig(t, false)
	r.feed(
		epochTick{}, // epoch 1
		snapAck{dir: tuple.SnapAckSnapshot, task: 0, epoch: 1},
		call(func() { r.c.started = time.Now().Add(-2 * r.eng.cfg.CheckpointTimeout) }),
		epochTick{}, // times the epoch out
		// Stragglers of the aborted epoch, then an ack for an epoch never opened.
		snapAck{dir: tuple.SnapAckSnapshot, task: 1, epoch: 1},
		snapAck{dir: tuple.SnapAckSnapshot, task: 2, epoch: 1},
		snapAck{dir: tuple.SnapAckSnapshot, task: 2, epoch: 7},
	)
	m := r.eng.Metrics()
	if m.EpochsAborted.Value() != 1 || m.EpochsCompleted.Value() != 0 {
		t.Fatalf("after the stragglers: aborted/completed = %d/%d, want 1/0", m.EpochsAborted.Value(), m.EpochsCompleted.Value())
	}
	r.feed(epochTick{}, r.ackAll()) // epoch 2 is unaffected
	if m.EpochsCompleted.Value() != 1 {
		t.Fatalf("epoch 2 did not commit (completed = %d)", m.EpochsCompleted.Value())
	}
	if latest, ok, err := r.c.store.Latest(); err != nil || !ok || latest != 2 {
		t.Fatalf("latest committed epoch = %d, %v, %v; want 2", latest, ok, err)
	}
}

func TestMonitorSpoutExitMidRestore(t *testing.T) {
	r := newMonitorRig(t, false)
	src := r.eng.workers[0].execMap()[0]
	exit := spoutExit{ex: src, reply: make(chan struct{})}
	var wave int
	r.feed(
		epochTick{}, r.ackAll(), // epoch 1 commits: something to restore from
		call(func() { r.eng.onWorkerDead(2) }),
		epochTick{}, // restore wave 1: the surviving sink task
		r.ackAll(),  // wave 2: the source
		call(func() { wave = r.c.restoreWave }),
		exit, // the source's executor ends before it acks
	)
	if wave != 2 {
		t.Fatalf("restore was in wave %d when the source exited, want 2", wave)
	}
	select {
	case <-exit.reply:
	default:
		t.Fatal("spoutExit was not answered")
	}
	if n := r.eng.Metrics().Restores.Value(); n != 1 {
		t.Fatalf("restores = %d, want 1: the exit must release the wave it was holding up", n)
	}
	var rescaleErr error
	r.feed(epochTick{}, call(func() { rescaleErr = r.m.rescale("sink", 1, nil) }))
	if rescaleErr == nil {
		t.Fatal("rescale accepted after the sources are gone")
	}
	r.feed(call(func() {
		if r.c.epoch != 0 || r.c.restoring || !r.c.sourceGone {
			t.Errorf("epoch=%d restoring=%v sourceGone=%v after the exit, want 0/false/true", r.c.epoch, r.c.restoring, r.c.sourceGone)
		}
	}))
}

// TestMonitorAutoscalerToldPlanFate: the controller issues its rescale by a
// direct call on the loop and hears the plan's fate from the rescale plane
// itself — an abort escalates the operator's backoff, a commit clears it,
// and a plan it did not issue is none of its business.
func TestMonitorAutoscalerToldPlanFate(t *testing.T) {
	r := newMonitorRig(t, true)
	a := r.eng.scaler
	// overload makes the next controller round see rho = 2 on sink: 4000
	// tuples at 1 ms each over a one-second window, two instances.
	overload := func(nowNS *int64) request {
		return call(func() {
			ops := r.eng.workers[1].execMap()[1].ops
			ops.executed.Add(4000)
			ops.execNS.Observe(4000 * int64(time.Millisecond))
			*nowNS = a.lastNS + int64(time.Second)
			r.m.handle(scaleTick(*nowNS))
		})
	}
	var now int64
	var pendingOp string
	r.feed(
		overload(&now),
		call(func() { pendingOp = a.pendingOp }),
		epochTick{},
		call(func() { r.eng.onWorkerDead(2) }),
	)
	if pendingOp != "sink" {
		t.Fatalf("controller's in-flight plan = %q after an overloaded round, want sink", pendingOp)
	}
	r.feed(call(func() {
		st := a.state("sink")
		if a.pendingOp != "" || a.aborts.Value() != 1 || st.backoff != a.cfg.Cooldown {
			t.Errorf("after the abort: pendingOp=%q aborts=%d backoff=%v, want none/1/%v", a.pendingOp, a.aborts.Value(), st.backoff, a.cfg.Cooldown)
		}
	}))

	// Recover, let the backoff and cooldown pass, and overload again: this
	// time the plan reaches its cut and commits.
	r.feed(
		epochTick{}, r.ackAll(), r.ackAll(), // restore after the death
		call(func() { a.lastNS += int64(time.Minute) }),
		overload(&now),
		call(func() { pendingOp = a.pendingOp }),
		epochTick{}, r.ackAll(), // the cut
		epochTick{}, r.ackAll(), r.ackAll(), // the rescale's restore
	)
	if pendingOp != "sink" {
		t.Fatalf("controller did not act after its backoff (in-flight plan %q)", pendingOp)
	}
	if n := countEvents(r.eng, obs.EventRescaleCommitted); n != 1 {
		t.Fatalf("rescale-committed events = %d, want 1", n)
	}
	var userErr error
	r.feed(
		call(func() {
			if st := a.state("sink"); a.pendingOp != "" || st.backoff != 0 {
				t.Errorf("after the commit: pendingOp=%q backoff=%v, want none/0", a.pendingOp, st.backoff)
			}
		}),
		// A plan somebody else issued aborts: not the controller's failure.
		call(func() { userErr = r.m.rescale("sink", 1, nil) }),
		call(func() { r.eng.onWorkerDead(1) }),
	)
	if userErr != nil {
		t.Fatalf("user rescale: %v", userErr)
	}
	if rep := r.eng.AutoscaleReport(); a.aborts.Value() != 1 || len(rep.Decisions) != 2 {
		t.Fatalf("aborts=%d decisions=%d, want 1 and 2", a.aborts.Value(), len(rep.Decisions))
	}
}
