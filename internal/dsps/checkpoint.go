package dsps

import (
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"whale/internal/obs"
	"whale/internal/snapshot"
	"whale/internal/tuple"
)

// Aligned snapshot barriers and exactly-once recovery (DESIGN §13).
//
// A checkpoint coordinator on worker 0 injects epoch-numbered barrier
// frames at every spout; barriers travel the data plane — the same local
// queues, flow-controlled links and multicast trees as tuples, in per-link
// FIFO order — so the tuples before a barrier on every path are exactly the
// epoch's stream prefix. Multi-input executors align: tuples arriving on a
// link whose barrier was already seen are parked (already credit-granted at
// admission, so parking never starves the credit loop) until every live
// upstream task's barrier arrives, then the task snapshots its state into
// the configured store, acks the coordinator, forwards the barrier and
// replays the parked tuples. When every task has acked, the epoch commits.
//
// Interaction with tree switching (§3.4): relays forward multicast messages
// by the version stamped at the source, and groupTrees retains the two
// previous versions, so a barrier in flight across an ordinary switch
// completes on the old tree. A repair (worker death) can prune the stamped
// version at a relay — the barrier is then dropped rather than
// half-propagated, the epoch times out, the coordinator aborts it and the
// next epoch re-runs through the repaired tree. An executor stuck aligning
// an aborted epoch is released by the next epoch's barriers, which
// supersede the stale alignment and replay its parked tuples.
//
// Recovery: when the failure detector confirms a worker dead, the
// coordinator aborts any in-flight epoch, waits for every group's tree
// repair to activate, then distributes restore markers carrying the latest
// committed epoch N and a fence epoch strictly greater than every epoch
// stamp issued before the crash. Tasks reinstall their epoch-N state (nil —
// reset — when no epoch ever committed), sources rewind to the recorded
// offsets, and every executor discards in-flight tuples stamped below the
// fence — upgrading the ack plane's at-least-once to effectively-once.

// Stream names of the checkpoint plane. StreamBarrier frames ride the data
// plane; trigger and restore markers are injected out of band into executor
// inboxes (like ticks) because they carry no ordering requirement against
// data.
const (
	// StreamBarrier carries epoch barrier frames (Tuple.Epoch = epoch).
	StreamBarrier     = "__barrier"
	streamCkptTrigger = "__ckpt_trigger" // coordinator -> spout executors
	streamCkptRestore = "__ckpt_restore" // coordinator -> every executor; Values[0] = restore epoch
)

// taskKey is a task's key in the snapshot store.
func taskKey(tid int32) string { return fmt.Sprintf("task-%d", tid) }

// checkpointCoordinator is the epoch state machine: trigger injection, ack
// collection, commit/abort, post-failure restore and the armed rescale
// plan. Its transitions are handlers of the monitor loop (monitor.go), which
// owns every mutable field; snapshot/restore work itself runs on the
// executors' goroutines, which touch only store, home and applied.
type checkpointCoordinator struct {
	eng   *Engine
	store snapshot.Store
	home  int32 // worker whose control address receives CtrlSnapAck

	tasks      []int32 // every non-acker task, ascending
	spoutTasks []int32 // the subset hosting spouts (trigger targets)
	spoutSet   map[int32]bool

	nextEpoch int64 // next epoch number to inject (monotone, never reused)
	epoch     int64 // in-flight snapshot epoch (0 = none)
	started   time.Time
	expected  map[int32]bool // tasks that must ack the current phase
	acked     map[int32]bool
	injected  map[int32]bool // tasks given this attempt's marker

	sourceGone     bool           // a source executor exited; no further epochs
	exited         map[int32]bool // spout tasks whose executor loop ended
	recoverPending bool           // a worker died; restore once tree repairs settle
	restoring      bool           // restore markers out; expected/acked track restore acks
	restoreWave    int            // 1: bolts fencing+restoring, 2: sources rewinding
	restoreFrom    int64          // committed epoch being reinstalled (0 = reset)
	fence          int64          // discard data-plane tuples stamped below this

	// Live rescale (DESIGN §14). A requested plan arms at the next epoch
	// and applies only when an epoch >= armAfter commits — that commit is
	// the rescale-aligned cut. The applied plan rides the fenced restore
	// machinery (state split/merge, source rewind) and is retained past the
	// restore: until the first post-rescale epoch commits, the latest
	// committed cut still stores the rescaled operator's shards under the
	// pre-rescale task ids, so a crash in that window must re-source them
	// from plan.oldTasks. The plan is discharged only when an epoch newer
	// than the cut commits. A worker death with a plan still pending aborts
	// it deterministically: the pre-rescale assignment stays active.
	pendingRescale *rescalePlan
	// applied is read by restoreTask on executor goroutines, so it points
	// at an immutable value: a change publishes a modified copy.
	applied atomic.Pointer[rescalePlan]
}

// rescalePlan is one requested parallelism change, carried from request
// through apply to the committed event.
type rescalePlan struct {
	op        string
	newPar    int
	newAssign *Assignment
	oldTasks  []int32 // op's task ids under the pre-rescale placement
	armAfter  int64   // first epoch whose commit applies the plan
	epoch     int64   // the aligned epoch actually committed (set at apply)
	committed bool    // rescale restore finished; EventRescaleCommitted emitted
}

func newCheckpointCoordinator(e *Engine) *checkpointCoordinator {
	c := &checkpointCoordinator{
		eng:       e,
		store:     e.cfg.CheckpointStore,
		home:      0,
		nextEpoch: 1,
		spoutSet:  map[int32]bool{},
		exited:    map[int32]bool{},
	}
	if c.store == nil {
		c.store = snapshot.NewMemStore()
	}
	for _, tc := range e.assign.Tasks {
		if tc.OperatorID == ackerOperatorID {
			continue
		}
		c.tasks = append(c.tasks, tc.TaskID)
		if e.topo.Operators[tc.OperatorID].IsSpout {
			c.spoutTasks = append(c.spoutTasks, tc.TaskID)
			c.spoutSet[tc.TaskID] = true
		}
	}
	return c
}

// tick advances the epoch state machine one step.
func (c *checkpointCoordinator) tick() {
	switch {
	// Recovery outranks sourceGone: a bounded source having drained stops
	// new epochs (below), but a worker death afterwards must still restore
	// the surviving stateful tasks from the last committed snapshot.
	case c.recoverPending:
		// Restore must observe the repaired trees: a restore marker racing
		// a half-distributed repair could rewind sources whose barriers
		// then cross a tree the members disagree on.
		if !c.eng.treesQuiet() {
			return
		}
		c.beginRestore()
	case c.restoring:
		if time.Since(c.started) > c.eng.cfg.CheckpointTimeout {
			// Re-drive the whole restore attempt: executors that already
			// applied this fence just re-ack.
			c.started = time.Now()
			c.injected = map[int32]bool{}
		}
		c.inject(c.restoreTargets(), c.restoreMarker())
	case c.sourceGone:
		// Bounded run winding down: an epoch could never complete without
		// its sources, so the coordinator goes quiet instead of wedging
		// Drain with markers nobody will consume.
		return
	case c.epoch != 0:
		if time.Since(c.started) > c.eng.cfg.CheckpointTimeout {
			c.abortEpoch("epoch timed out")
			return
		}
		c.inject(c.triggerTargets(), &tuple.Tuple{Stream: streamCkptTrigger, Epoch: c.epoch})
	default:
		c.beginEpoch()
	}
}

// beginEpoch opens the next snapshot epoch and injects triggers.
func (c *checkpointCoordinator) beginEpoch() {
	c.epoch = c.nextEpoch
	c.nextEpoch++
	c.started = time.Now()
	c.expected = map[int32]bool{}
	c.acked = map[int32]bool{}
	c.injected = map[int32]bool{}
	tv := c.eng.tv()
	for _, tid := range c.tasks {
		if !c.exited[tid] && !c.eng.workerDead(tv.assign.WorkerOf[tid]) {
			c.expected[tid] = true
		}
	}
	c.inject(c.triggerTargets(), &tuple.Tuple{Stream: streamCkptTrigger, Epoch: c.epoch})
}

// triggerTargets lists the spout tasks expected to start this epoch.
func (c *checkpointCoordinator) triggerTargets() []int32 {
	out := make([]int32, 0, len(c.spoutTasks))
	for _, tid := range c.spoutTasks {
		if c.expected[tid] {
			out = append(out, tid)
		}
	}
	return out
}

// restoreTargets lists every task expected to ack the restore.
func (c *checkpointCoordinator) restoreTargets() []int32 {
	out := make([]int32, 0, len(c.expected))
	for _, tid := range c.tasks {
		if c.expected[tid] {
			out = append(out, tid)
		}
	}
	return out
}

func (c *checkpointCoordinator) restoreMarker() *tuple.Tuple {
	return &tuple.Tuple{Stream: streamCkptRestore, Epoch: c.fence, Values: []tuple.Value{c.restoreFrom}}
}

// inject puts the marker, without waiting, in the inbox of every listed
// task that has not yet received one this attempt.
func (c *checkpointCoordinator) inject(targets []int32, tp *tuple.Tuple) {
	tv := c.eng.tv()
	for _, tid := range targets {
		if c.injected[tid] || c.acked[tid] {
			continue
		}
		w := c.eng.workers[tv.assign.WorkerOf[tid]]
		ex, ok := w.execMap()[tid]
		if !ok {
			continue
		}
		ex.put(tuple.AddressedTuple{TaskID: tid, Src: tuple.LocalSrc, Data: tp})
		c.injected[tid] = true
	}
}

// abortEpoch discards the in-flight epoch. No abort marker is sent:
// executors stuck aligning the dead epoch are released by the next epoch's
// barriers, which supersede the stale alignment.
func (c *checkpointCoordinator) abortEpoch(reason string) {
	epoch := c.epoch
	c.epoch = 0
	_ = c.store.Discard(epoch)
	c.eng.metrics.EpochsAborted.Inc()
	c.eng.obs.Events.Append(obs.Event{
		Kind: obs.EventSnapshotAbort, Worker: c.home, Epoch: epoch,
		Detail: reason,
	})
}

// handleAck records one task's snapshot or restore acknowledgement.
func (c *checkpointCoordinator) handleAck(direction byte, task int32, epoch int64) {
	switch direction {
	case tuple.SnapAckSnapshot:
		if c.restoring || epoch == 0 || epoch != c.epoch || !c.expected[task] || c.acked[task] {
			return
		}
		c.acked[task] = true
		if !c.allAcked() {
			return
		}
		c.epoch = 0
		if err := c.store.Commit(epoch); err != nil {
			c.eng.metrics.SnapshotErrors.Inc()
			c.eng.obs.Events.Append(obs.Event{
				Kind: obs.EventSnapshotAbort, Worker: c.home, Epoch: epoch,
				Detail: fmt.Sprintf("commit failed: %v", err),
			})
			return
		}
		c.eng.metrics.EpochsCompleted.Inc()
		c.eng.metrics.EpochLatency.Observe(time.Since(c.started).Nanoseconds())
		c.eng.obs.Events.Append(obs.Event{
			Kind: obs.EventSnapshotComplete, Worker: c.home, Epoch: epoch,
			Detail: fmt.Sprintf("%d tasks acked", len(c.acked)),
		})
		// First post-rescale cut: the rescaled operator's shards now live in
		// the store under the new task ids, so the old-layout plan is no
		// longer needed to source a crash restore.
		if p := c.applied.Load(); p != nil && epoch > p.epoch {
			c.applied.Store(nil)
		}
		if p := c.pendingRescale; p != nil && epoch >= p.armAfter {
			c.applyRescale(epoch)
		}
	case tuple.SnapAckRestore:
		if !c.restoring || epoch != c.fence || !c.expected[task] || c.acked[task] {
			return
		}
		c.acked[task] = true
		c.advanceRestore()
	}
}

// advanceRestore moves the restore forward when the current wave has fully
// acked. Bolts first, sources second: a source that rewound before every
// downstream task installed its fence would re-emit records into
// pre-rollback state, and the rollback would silently eat them.
func (c *checkpointCoordinator) advanceRestore() {
	if !c.restoring || !c.allAcked() {
		return
	}
	if c.restoreWave == 1 && c.startRestoreWave(2) {
		return
	}
	c.finishRestore()
}

// startRestoreWave opens one restore wave (1 = non-spout tasks, 2 = spout
// tasks) and injects its markers. Returns false when the wave has no live
// member so the caller can skip ahead. Exited spout tasks are excluded —
// their executor loop is gone, so a marker queued to them would never be
// consumed or acked and the restore would wedge against its timeout.
func (c *checkpointCoordinator) startRestoreWave(wave int) bool {
	c.restoreWave = wave
	c.started = time.Now()
	c.expected = map[int32]bool{}
	c.acked = map[int32]bool{}
	c.injected = map[int32]bool{}
	tv := c.eng.tv()
	for _, tid := range c.tasks {
		if c.spoutSet[tid] != (wave == 2) {
			continue
		}
		if !c.exited[tid] && !c.eng.workerDead(tv.assign.WorkerOf[tid]) {
			c.expected[tid] = true
		}
	}
	if len(c.expected) == 0 {
		return false
	}
	c.inject(c.restoreTargets(), c.restoreMarker())
	return true
}

// finishRestore closes the restore phase after the last wave acked.
func (c *checkpointCoordinator) finishRestore() {
	c.restoring = false
	c.restoreWave = 0
	c.eng.metrics.Restores.Inc()
	c.eng.obs.Events.Append(obs.Event{
		Kind: obs.EventSnapshotRestored, Worker: c.home, Epoch: c.restoreFrom,
		Detail: fmt.Sprintf("restored from epoch %d; fence %d", c.restoreFrom, c.fence),
	})
	// The applied plan is NOT discharged here: the latest committed cut still
	// holds the rescaled operator's shards under the pre-rescale task ids, so
	// a crash before the first post-rescale epoch commits must restore through
	// the plan again. handleAck drops it at that commit. The committed flag
	// keeps a window-crash re-restore from re-emitting the event.
	if p := c.applied.Load(); p != nil && !p.committed {
		done := *p
		done.committed = true
		c.applied.Store(&done)
		c.eng.obs.Events.Append(obs.Event{
			Kind: obs.EventRescaleCommitted, Worker: c.home, Epoch: p.epoch,
			Detail: fmt.Sprintf("%s -> %d tasks, cut at epoch %d", p.op, p.newPar, p.epoch),
		})
		c.eng.scaler.planResolved(true, time.Now().UnixNano())
	}
}

func (c *checkpointCoordinator) allAcked() bool {
	for tid := range c.expected {
		if !c.acked[tid] {
			return false
		}
	}
	return true
}

// noteSpoutExit records that a source's executor loop ended (finite source
// exhausted, or StopSpouts): the coordinator stops opening epochs — they
// could never complete — and discards whatever is queued to the dead
// executor so a bounded run still drains to quiescence. Markers are injected
// by this loop only, so nothing lands in the queue afterwards.
func (c *checkpointCoordinator) noteSpoutExit(ex *executor) {
	c.sourceGone = true
	c.exited[ex.ctx.TaskID] = true
	// An in-flight restore can no longer wait on this task; drop it from
	// the expected set and complete the wave if it was the last holdout.
	delete(c.expected, ex.ctx.TaskID)
	c.advanceRestore()
	if c.epoch != 0 {
		c.abortEpoch(fmt.Sprintf("source task %d exited mid-epoch", ex.ctx.TaskID))
	}
	// The executor loop has ended, so this loop is the inbox's consumer now.
	for range ex.take() {
		ex.inbox.done()
	}
}

// onWorkerDead aborts the in-flight epoch (its barriers can no longer fully
// propagate) and schedules a restore once the tree repairs settle. Runs
// after the managers start repairing.
func (c *checkpointCoordinator) onWorkerDead(dead int32) {
	if c.epoch != 0 {
		c.abortEpoch(fmt.Sprintf("worker %d confirmed dead mid-epoch", dead))
	}
	// A plan that has not applied yet can never apply now: the aligned
	// epoch's barriers died with the worker. Abort it deterministically —
	// the pre-rescale assignment stays active, never a half-repartitioned
	// topology. An already-applied plan is durable (its cut committed) and
	// rides the restore that follows.
	if p := c.pendingRescale; p != nil {
		c.pendingRescale = nil
		c.eng.obs.Events.Append(obs.Event{
			Kind: obs.EventRescaleAborted, Worker: c.home,
			Detail: fmt.Sprintf("%s -> %d: worker %d died before the aligned epoch committed", p.op, p.newPar, dead),
		})
		c.eng.scaler.planResolved(false, time.Now().UnixNano())
	}
	c.restoring = false
	c.restoreWave = 0
	c.recoverPending = true
}

// requestRescale arms a live parallelism change. The plan applies at the
// commit of the first epoch >= armAfter — epochs already in flight commit
// (or abort) under the old placement, so the cut is always a full aligned
// snapshot of the pre-rescale topology.
func (c *checkpointCoordinator) requestRescale(op string, newPar int, next *Assignment) error {
	if c.rescalePending() {
		return fmt.Errorf("dsps: a rescale is already in progress")
	}
	if c.restoring || c.recoverPending {
		return fmt.Errorf("dsps: rescale rejected: recovery in progress")
	}
	if c.sourceGone {
		return fmt.Errorf("dsps: rescale rejected: sources exhausted, no further epochs will commit")
	}
	old := c.eng.tv().assign.TasksOf[op]
	plan := &rescalePlan{
		op:        op,
		newPar:    newPar,
		newAssign: next,
		oldTasks:  append([]int32(nil), old...),
		armAfter:  c.nextEpoch,
	}
	c.pendingRescale = plan
	c.eng.obs.Events.Append(obs.Event{
		Kind: obs.EventRescaleStarted, Worker: c.home, Epoch: plan.armAfter,
		Detail: fmt.Sprintf("%s: %d -> %d tasks, arming at epoch %d", op, len(old), newPar, plan.armAfter),
	})
	return nil
}

// rescalePending reports whether a rescale is requested or applied but not
// yet committed (its restore still running). An applied plan whose restore
// already finished only lingers to source a crash-window restore from the
// old task layout; it does not count, and does not block the next request —
// that plan arms at a strictly newer epoch, whose commit discharges the
// lingering one before applying the new one.
func (c *checkpointCoordinator) rescalePending() bool {
	p := c.applied.Load()
	return c.pendingRescale != nil || (p != nil && !p.committed)
}

// applyRescale installs the armed plan at its aligned cut: new executors
// spin up, the placement view swaps, the coordinator's task universe is
// rebuilt under the new assignment, and every multicast group's membership
// follows (tree growth/prune over the §3.4 versioned switch). State movement
// itself is deferred to the fenced restore armed at the end — mirroring the
// failure path's repair-then-recover ordering, treesQuiet gates the restore
// markers behind the switches just started: wave 1 re-derives every task's
// routing and reinstalls state — the rescaled operator's shards split or
// merged by slot ownership — and wave 2 rewinds sources to the cut. Retired
// executors are left running inert: the restore never targets them, rebuilt
// upstream routers no longer name them, and everything they emit stays
// stamped below the fence.
func (c *checkpointCoordinator) applyRescale(epoch int64) {
	plan := *c.pendingRescale
	c.pendingRescale = nil
	plan.epoch = epoch
	e := c.eng
	na := plan.newAssign
	old := make(map[int32]bool, len(plan.oldTasks))
	for _, tid := range plan.oldTasks {
		old[tid] = true
	}
	// New executors before the view swap: the moment peers observe the new
	// placement they route to the new tasks, whose queues must exist.
	spec := e.topo.Operators[plan.op]
	sink := e.opIsSink(plan.op)
	for _, tid := range na.TasksOf[plan.op] {
		if old[tid] {
			continue
		}
		w := e.workers[na.WorkerOf[tid]]
		rt := newRouter(e.topo, na, plan.op, w.id)
		ex := newExecutor(w, na.Tasks[tid], spec, na, rt, sink, e.cfg.ExecutorQueueCap)
		w.addExecutor(ex)
		w.wg.Add(1)
		go ex.runBolt()
	}
	e.view.Store(&topoView{assign: na, remoteBy: buildRemote(e.topo, na, e.cfg.MaxWorkers)})
	c.tasks = c.tasks[:0]
	for _, tc := range na.Tasks {
		if tc.OperatorID == ackerOperatorID || na.retired(tc.TaskID) {
			continue
		}
		c.tasks = append(c.tasks, tc.TaskID)
	}
	sort.Slice(c.tasks, func(i, j int) bool { return c.tasks[i] < c.tasks[j] })
	c.applied.Store(&plan)
	for _, desc := range e.groupDescs {
		local, members := e.groupMembership(desc, na)
		e.managers[desc.id].applyMembership(local, members)
	}
	c.recoverPending = true
}

// beginRestore opens the restore phase: pick the latest committed epoch,
// fence everything stamped before the crash, and distribute restore markers
// to the surviving tasks.
func (c *checkpointCoordinator) beginRestore() {
	from, ok, err := c.store.Latest()
	if err != nil {
		// A transient store error (FileStore ReadDir hiccup) must not be
		// read as "nothing committed" — resetting here would silently
		// discard a durable epoch. Stay in recoverPending and retry on the
		// next tick; only a definitive ok=false falls back to reset.
		c.eng.metrics.SnapshotErrors.Inc()
		c.eng.obs.Events.Append(obs.Event{
			Kind: obs.EventSnapshotAbort, Worker: c.home,
			Detail: fmt.Sprintf("restore deferred: store.Latest: %v", err),
		})
		return
	}
	c.recoverPending = false
	if !ok {
		from = 0 // nothing committed: reset every task to initial state
	}
	// Epoch stamps issued so far are at most nextEpoch (the interval after
	// the last attempted barrier), so nextEpoch+1 fences all of them.
	c.fence = c.nextEpoch + 1
	c.nextEpoch = c.fence
	c.restoreFrom = from
	c.restoring = true
	c.eng.obs.Events.Append(obs.Event{
		Kind: obs.EventSnapshotRestore, Worker: c.home, Epoch: from,
		Detail: fmt.Sprintf("restoring from epoch %d, fence %d", from, c.fence),
	})
	if !c.startRestoreWave(1) && !c.startRestoreWave(2) {
		c.finishRestore()
	}
}

// treesQuiet reports whether no multicast group has a version distribution
// in flight (repairs included).
func (e *Engine) treesQuiet() bool {
	for _, mgr := range e.managers {
		if mgr.pendingVersion != 0 {
			return false
		}
	}
	return true
}

// snapshotTask captures one task's state for epoch and acks the
// coordinator. Runs on the task's executor goroutine, so the state it
// serializes is exactly the post-alignment, pre-replay state. Stateless
// tasks ack without a store entry (restore hands them a nil snapshot).
// It reports whether the task may advance its epoch and forward barriers.
func (c *checkpointCoordinator) snapshotTask(ex *executor, epoch int64) bool {
	if sn, ok := ex.snapshotter(); ok {
		var data []byte
		var err error
		if sh, sharded := sn.(snapshot.Sharder); sharded {
			// Slot-sharded state always snapshots in shard encoding, so any
			// later epoch can be split or merged across a parallelism change
			// without re-interpreting opaque task blobs.
			var shards map[int32][]byte
			if shards, err = sh.ShardSnapshot(); err == nil {
				data = snapshot.EncodeShards(shards)
			}
		} else {
			data, err = sn.SnapshotState()
		}
		if err == nil {
			err = c.store.Put(epoch, taskKey(ex.ctx.TaskID), data)
		}
		if err != nil {
			c.eng.metrics.SnapshotErrors.Inc()
			c.eng.obs.Events.Append(obs.Event{
				Kind: obs.EventSnapshotAbort, Worker: ex.w.id, Epoch: epoch,
				Detail: fmt.Sprintf("task %d snapshot failed: %v", ex.ctx.TaskID, err),
			})
			return false
		}
	}
	ex.ackCheckpoint(tuple.SnapAckSnapshot, epoch)
	return true
}

// restoreTask reinstalls a task's epoch-N state (nil resets when the task
// has no entry or no epoch ever committed). Runs on the executor goroutine.
// Slot-sharded state under a just-applied rescale of this operator is
// repartitioned here: every pre-rescale task's shards are fetched, merged,
// and filtered down to the slots this task owns under its new width — an
// MxN split/merge with no coordination beyond the committed store.
func (c *checkpointCoordinator) restoreTask(ex *executor, from int64) error {
	sn, ok := ex.snapshotter()
	if !ok {
		return nil
	}
	sh, sharded := sn.(snapshot.Sharder)
	if !sharded {
		var data []byte
		if from > 0 {
			d, found, err := c.store.Get(from, taskKey(ex.ctx.TaskID))
			if err != nil {
				return err
			}
			if found {
				data = d
			}
		}
		return sn.RestoreState(data)
	}
	plan := c.applied.Load()
	// The plan sources only restores at or before its aligned cut — epochs
	// up to plan.epoch store the operator's shards under the pre-rescale
	// task ids (the plan is discharged once a newer epoch commits, so this
	// guard is defense in depth against a stale read).
	rescaled := plan != nil && plan.op == ex.ctx.OperatorID && from <= plan.epoch
	source := []int32{ex.ctx.TaskID}
	if rescaled {
		source = plan.oldTasks
	}
	if from == 0 {
		return sh.RestoreShards(nil)
	}
	parts := make([]map[int32][]byte, 0, len(source))
	for _, tid := range source {
		d, found, err := c.store.Get(from, taskKey(tid))
		if err != nil {
			return err
		}
		if !found {
			continue
		}
		if !rescaled && !snapshot.IsShardEncoded(d) {
			// Legacy durable checkpoint written before shard encoding: the
			// blob is a plain SnapshotState payload for this very task.
			return sn.RestoreState(d)
		}
		shards, err := snapshot.DecodeShards(d)
		if err != nil {
			return err
		}
		parts = append(parts, shards)
	}
	union, err := snapshot.MergeShards(parts...)
	if err != nil {
		return err
	}
	if rescaled {
		// Keep only the slots this task owns under the new parallelism —
		// rebuildRouting already refreshed TaskIndex/Parallelism, and the
		// fields-grouping router sends slot s to task index s mod par.
		own := make(map[int32][]byte, len(union))
		for slot, d := range union {
			if int(slot)%ex.ctx.Parallelism == ex.ctx.TaskIndex {
				own[slot] = d
			}
		}
		union = own
	}
	return sh.RestoreShards(union)
}

// --- executor side ---------------------------------------------------------

// alignState tracks one bolt's barrier alignment for one epoch.
type alignState struct {
	epoch int64
	seen  map[int32]bool // upstream tasks whose barrier arrived
	// buf parks tuples from already-barriered links until alignment
	// completes; stampNS parallels it for residency accounting. Parked
	// tuples were granted at admission, so parking holds no credit.
	buf     []tuple.AddressedTuple
	stampNS []int64
}

// snapshotter returns the task's user code as a Snapshotter if it
// implements one.
func (ex *executor) snapshotter() (snapshot.Snapshotter, bool) {
	if ex.spout != nil {
		sn, ok := ex.spout.(snapshot.Snapshotter)
		return sn, ok
	}
	sn, ok := ex.bolt.(snapshot.Snapshotter)
	return sn, ok
}

// consume is the bolt executor's inbound gate: barrier and restore frames
// peel off to the checkpoint plane, fenced tuples are discarded, and while
// aligning, tuples from already-barriered links are parked. Everything else
// executes. With checkpointing disabled this is a handful of compares on
// the hot path — no allocation, no locks.
//
//whale:hotpath
func (ex *executor) consume(at tuple.AddressedTuple) {
	tp := at.Data
	switch tp.Stream {
	case StreamBarrier:
		ex.onBarrier(tp)
		return
	case streamCkptRestore:
		ex.onRestore(tp)
		return
	}
	if fe := ex.fenceEpoch; fe != 0 && tp.Epoch != 0 && tp.Epoch < fe {
		ex.w.eng.metrics.TuplesFenced.Inc()
		return
	}
	if a := ex.aligning; a != nil && a.seen[tp.SrcTask] {
		a.buf = append(a.buf, at)
		//lint:ignore hotalloc stamps only tuples parked during an active alignment, not the steady-state path
		a.stampNS = append(a.stampNS, time.Now().UnixNano())
		ex.alignParked.Add(1)
		ex.w.eng.metrics.AlignBuffered.Inc()
		return
	}
	ex.execute(at)
}

// onBarrier processes one epoch barrier frame. Duplicate barriers per
// (epoch, upstream task) are idempotent — one-to-many edges and multi-
// stream subscriptions deliver more than one copy per link.
func (ex *executor) onBarrier(tp *tuple.Tuple) {
	epoch := tp.Epoch
	if epoch < ex.epochStamp {
		return // stale: epoch already completed here, or pre-fence
	}
	a := ex.aligning
	if a != nil && epoch > a.epoch {
		// The aligned epoch was aborted upstream (only one epoch is ever
		// in flight): release its parked tuples — they precede this
		// barrier on their links, so they replay before the new alignment
		// parks anything — and realign on the new epoch.
		ex.aligning = nil
		ex.replayAligned(a)
		a = nil
	}
	if a == nil {
		a = &alignState{epoch: epoch, seen: map[int32]bool{}}
		ex.aligning = a
	}
	if a.seen[tp.SrcTask] {
		return
	}
	a.seen[tp.SrcTask] = true
	if ex.alignmentDone(a) {
		ex.completeEpoch(a)
	}
}

// alignmentDone reports whether every live upstream task's barrier arrived.
// Tasks on confirmed-dead workers are excused — their epoch is already
// doomed at the coordinator, but excusing them keeps the executor from
// parking forever between death and the next epoch.
func (ex *executor) alignmentDone(a *alignState) bool {
	eng := ex.w.eng
	assign := eng.tv().assign
	for _, tid := range ex.upstream {
		if a.seen[tid] || eng.workerDead(assign.WorkerOf[tid]) {
			continue
		}
		return false
	}
	return true
}

// completeEpoch snapshots, acks, forwards the barrier and replays parked
// tuples — in that order, so the snapshot excludes every post-barrier
// tuple and downstream alignment starts before the replayed backlog.
func (ex *executor) completeEpoch(a *alignState) {
	ex.aligning = nil
	cc := ex.w.eng.ckpt
	if cc != nil && !cc.snapshotTask(ex, a.epoch) {
		// Snapshot failed: stay on the old epoch (no barrier forward, no
		// ack — the coordinator aborts on timeout) but release the parked
		// tuples; the epoch's re-run will realign them.
		ex.replayAligned(a)
		return
	}
	ex.epochStamp = a.epoch + 1
	ex.routeBarrier(a.epoch)
	ex.replayAligned(a)
}

// replayAligned runs parked tuples back through consume in arrival order.
// Re-entrancy is bounded: barriers and restore markers are never parked,
// so replay cannot recurse into another replay of the same buffer.
func (ex *executor) replayAligned(a *alignState) {
	if len(a.buf) == 0 {
		return
	}
	m := ex.w.eng.metrics
	now := time.Now().UnixNano()
	ex.alignParked.Add(int64(-len(a.buf)))
	buf, stamps := a.buf, a.stampNS
	a.buf, a.stampNS = nil, nil
	for i, at := range buf {
		m.AlignWaitNS.Add(now - stamps[i])
		buf[i] = tuple.AddressedTuple{}
		ex.consume(at)
	}
}

// onTrigger starts epoch tp.Epoch at a spout: snapshot source offsets, ack,
// advance the stamp and inject the barrier downstream. Runs on the spout
// goroutine between Next calls.
func (ex *executor) onTrigger(tp *tuple.Tuple) {
	cc := ex.w.eng.ckpt
	if cc == nil {
		return
	}
	epoch := tp.Epoch
	if epoch+1 == ex.epochStamp {
		// Duplicate trigger for the epoch already taken here (the ack may
		// have been lost): re-ack without re-snapshotting moved state.
		ex.ackCheckpoint(tuple.SnapAckSnapshot, epoch)
		return
	}
	if epoch < ex.epochStamp {
		return // stale trigger from an aborted epoch
	}
	if cc.snapshotTask(ex, epoch) {
		ex.epochStamp = epoch + 1
		ex.routeBarrier(epoch)
	}
}

// onRestore reinstalls this task's state at the marker's epoch and adopts
// the fence. Shared by bolts (via consume) and spouts (via the spout event
// loop).
func (ex *executor) onRestore(tp *tuple.Tuple) {
	cc := ex.w.eng.ckpt
	if cc == nil {
		return
	}
	fence := tp.Epoch
	if fence <= ex.fenceEpoch {
		if fence == ex.fenceEpoch {
			ex.ackCheckpoint(tuple.SnapAckRestore, fence) // re-driven attempt
		}
		return
	}
	// Parked alignment tuples are pre-crash in-flight data: everything they
	// carry is re-delivered by the source rewind, so they are dropped here
	// (replaying them through the fence would discard them one by one).
	if a := ex.aligning; a != nil {
		ex.aligning = nil
		ex.alignParked.Add(int64(-len(a.buf)))
		ex.w.eng.metrics.TuplesFenced.Add(int64(len(a.buf)))
	}
	// Pre-crash reliability trees can never complete; drop their anchors so
	// a reliable spout is not wedged against MaxSpoutPending after rewind.
	if ex.spout != nil && len(ex.pendingRoots) > 0 {
		ex.pendingRoots = map[int64]int64{}
	}
	// Adopt the current placement view before state reinstalls: after a
	// rescale this re-derives the router, upstream set and task width the
	// restored state is filtered by; after a plain crash it is a no-op
	// refresh of the same assignment.
	ex.rebuildRouting()
	if err := cc.restoreTask(ex, tp.Int(0)); err != nil {
		ex.w.eng.metrics.SnapshotErrors.Inc()
		ex.w.eng.obs.Events.Append(obs.Event{
			Kind: obs.EventSnapshotAbort, Worker: ex.w.id, Epoch: tp.Int(0),
			Detail: fmt.Sprintf("task %d restore failed: %v", ex.ctx.TaskID, err),
		})
		return // no ack; the coordinator re-drives the restore
	}
	ex.fenceEpoch = fence
	ex.epochStamp = fence
	ex.ackCheckpoint(tuple.SnapAckRestore, fence)
}

// ackCheckpoint reports snapshot/restore completion to the coordinator —
// into the monitor's mailbox when it is local, as a CtrlSnapAck control
// frame otherwise
// (control stays inline at the receiver, so acks cannot deadlock behind
// the data they describe).
func (ex *executor) ackCheckpoint(direction byte, epoch int64) {
	cc := ex.w.eng.ckpt
	if cc == nil {
		return
	}
	if ex.w.id == cc.home {
		ex.w.eng.mon.post(snapAck{dir: direction, task: ex.ctx.TaskID, epoch: epoch})
		return
	}
	ex.w.sendControl(&tuple.ControlMessage{Type: tuple.CtrlSnapAck, Direction: direction, Node: ex.ctx.TaskID, Epoch: epoch}, cc.home)
}

// routeBarrier fans one epoch barrier out to every task of every subscribed
// operator (the ack plane excepted), over the same paths data takes: the
// local fast path, point-to-point links, or the group's active multicast
// tree — whose version is stamped at the source so relays in the middle of
// a switch forward it consistently on the old structure. Unlike data
// routing, every grouping broadcasts: alignment is per upstream task, so
// each downstream task needs this task's barrier exactly once (duplicates
// are idempotent).
func (ex *executor) routeBarrier(epoch int64) {
	eng := ex.w.eng
	assign := eng.tv().assign
	ex.nextID++
	tp := &tuple.Tuple{
		Stream:     StreamBarrier,
		ID:         ex.nextID,
		SrcTask:    ex.ctx.TaskID,
		RootEmitNS: time.Now().UnixNano(),
		Epoch:      epoch,
	}
	streams := make([]string, 0, len(ex.rt.routes))
	for s := range ex.rt.routes {
		streams = append(streams, s)
	}
	sort.Strings(streams)
	var sentGroups map[int32]bool
	for _, stream := range streams {
		for _, rt := range ex.rt.routes[stream] {
			if rt.dstOp == ackerOperatorID {
				continue
			}
			tree := rt.sub.Type == AllGrouping &&
				eng.cfg.Comm == WorkerOriented && eng.cfg.Multicast != MulticastStar
			for _, dst := range rt.dstTasks {
				dw := assign.WorkerOf[dst]
				if dw == ex.w.id {
					ex.w.enqueueLocal(dst, tp)
				} else if !tree && !eng.workerDead(dw) {
					ex.w.enqueueSend(sendJob{kind: jobPointToPoint, tp: tp, dstTask: dst, dstWorker: dw})
				}
			}
			if tree {
				gid, ok := eng.groupOf(ex.ctx.OperatorID, stream, ex.w.id)
				if !ok {
					continue // all remote members local-delivered above
				}
				if sentGroups == nil {
					sentGroups = map[int32]bool{}
				}
				if !sentGroups[gid] {
					sentGroups[gid] = true
					ex.w.enqueueSend(sendJob{kind: jobMulticast, tp: tp, group: gid})
				}
			}
		}
	}
}

// alignParkedLen reports the tuples currently parked for alignment (drain
// accounting; read from the Drain goroutine).
func (ex *executor) alignParkedLen() int64 { return ex.alignParked.Load() }
