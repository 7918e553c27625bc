package dsps

import (
	"fmt"
	"sync/atomic"
	"time"

	"whale/internal/multicast"
	"whale/internal/obs"
	"whale/internal/tuple"
)

// Failure detection and self-healing recovery. A crashed worker inside a
// multicast relay tree silently orphans its whole subtree (every interior
// node is a relay point), so the engine runs a lightweight heartbeat-based
// detector and repairs affected trees through the same versioned CtrlTree
// distribution the §3.4 dynamic-switching path uses.
//
// Protocol: every worker beacons a CtrlHeartbeat to the monitor (worker 0)
// each HeartbeatInterval; any inbound message doubles as liveness evidence.
// The monitor sweeps at the same period and drives a per-worker
// alive → suspect → dead state machine on observed silence (SuspectAfter,
// ConfirmAfter). Suspicion is reversible (worker-recover); confirmation is
// terminal — the worker is fenced out of sends and ack accounting, and
// every multicast group re-parents the orphaned subtree around it.

// Worker liveness states.
const (
	wsAlive int32 = iota
	wsSuspect
	wsDead
)

// failureDetector is the monitor-side liveness state. lastSeen is written
// from the monitor worker's dispatch path (any message counts); state is
// owned by the monitor loop, which alone advances the machine.
type failureDetector struct {
	eng      *Engine
	monitor  int32
	lastSeen []atomic.Int64
	state    []int32
	// degraded is the overload path's advisory marks: a subscriber paused
	// past DegradedAfter is degraded — slow, not dead. It never feeds the
	// fencing state machine above.
	degraded []atomic.Bool
}

func newFailureDetector(e *Engine) *failureDetector {
	fd := &failureDetector{
		eng:      e,
		monitor:  0,
		lastSeen: make([]atomic.Int64, e.cfg.MaxWorkers),
		state:    make([]int32, e.cfg.MaxWorkers),
		degraded: make([]atomic.Bool, e.cfg.MaxWorkers),
	}
	now := time.Now().UnixNano()
	for i := range fd.lastSeen {
		fd.lastSeen[i].Store(now)
	}
	return fd
}

// observe records liveness evidence from a worker. Called from the monitor
// worker's dispatch path for every inbound message.
func (fd *failureDetector) observe(from int32) {
	if from < 0 || int(from) >= len(fd.lastSeen) {
		return
	}
	fd.lastSeen[from].Store(time.Now().UnixNano())
}

// markDegraded flags a worker as degraded (slow-consumer overload path).
func (fd *failureDetector) markDegraded(w int32) {
	if w >= 0 && int(w) < len(fd.degraded) {
		fd.degraded[w].Store(true)
	}
}

// clearDegraded withdraws the degraded mark once the worker's link reopens.
func (fd *failureDetector) clearDegraded(w int32) {
	if w >= 0 && int(w) < len(fd.degraded) {
		fd.degraded[w].Store(false)
	}
}

// sweep advances the alive → suspect → dead state machine once.
func (fd *failureDetector) sweep(now time.Time) {
	nowNS := now.UnixNano()
	suspectNS := fd.eng.cfg.SuspectAfter.Nanoseconds()
	confirmNS := fd.eng.cfg.ConfirmAfter.Nanoseconds()
	for w := range fd.state {
		if int32(w) == fd.monitor || !fd.eng.joinedWorker(int32(w)) {
			// Dormant and gracefully-departed workers do not beacon; their
			// silence is membership state, not a failure.
			continue
		}
		silence := nowNS - fd.lastSeen[w].Load()
		switch fd.state[w] {
		case wsAlive:
			if silence > suspectNS {
				fd.state[w] = wsSuspect
				fd.eng.obs.Events.Append(obs.Event{
					Kind: obs.EventWorkerSuspect, Worker: int32(w),
					Detail: fmt.Sprintf("silent for %v", time.Duration(silence)),
				})
			}
		case wsSuspect:
			switch {
			case silence <= suspectNS:
				fd.state[w] = wsAlive
				fd.eng.obs.Events.Append(obs.Event{
					Kind: obs.EventWorkerRecover, Worker: int32(w),
					Detail: "traffic resumed before confirmation",
				})
			case silence > confirmNS:
				fd.state[w] = wsDead
				fd.eng.obs.Events.Append(obs.Event{
					Kind: obs.EventWorkerDead, Worker: int32(w),
					Detail: fmt.Sprintf("silent for %v; repairing trees", time.Duration(silence)),
				})
				fd.eng.onWorkerDead(int32(w))
			}
		}
	}
}

// heartbeatLoop beacons one worker's liveness to the monitor. Heartbeats
// are fire-and-forget and bypass the transfer queue: a blocked send thread
// must not look like a dead worker. stop is the per-join stop channel — a
// graceful leave closes it without touching engine shutdown.
func (e *Engine) heartbeatLoop(w *worker, stop chan struct{}) {
	defer e.auxWG.Done()
	ticker := time.NewTicker(e.cfg.HeartbeatInterval)
	defer ticker.Stop()
	// Heartbeats are sent synchronously, so one loop-owned encoder serves
	// every beacon without a per-tick allocation.
	enc := tuple.NewEncoder()
	var seq int32
	for {
		select {
		case <-e.stopTick:
			return
		case <-stop:
			return
		case <-ticker.C:
			seq++
			cm := tuple.ControlMessage{Type: tuple.CtrlHeartbeat, Node: w.id, Version: seq}
			// A failed heartbeat send is itself the failure signal.
			_ = w.tr.Send(e.detector.monitor, enc.EncodeControlEnvelope(&cm))
		}
	}
}

// onWorkerDead fences a confirmed-dead worker and repairs every multicast
// group it belonged to. Runs on the monitor loop.
func (e *Engine) onWorkerDead(dead int32) {
	e.dead[dead].Store(true)
	e.metrics.WorkerFailures.Inc()
	// Repair groups in id order so multi-group recovery is deterministic.
	for _, desc := range e.groupDescs {
		e.managers[desc.id].handleWorkerFailure(dead)
	}
	// Checkpointing: the in-flight epoch can no longer complete; restore
	// begins once the repairs just distributed have activated.
	if e.ckpt != nil {
		e.ckpt.onWorkerDead(dead)
	}
}

// workerDead reports whether w has been confirmed dead. Hot path: bounds
// compares plus one atomic load. Out-of-range ids — notably retiredWorker
// tombstones left by a shrink rescale — read as dead, so stale routing
// state that still names a retired task suppresses the send instead of
// faulting.
func (e *Engine) workerDead(w int32) bool {
	return w < 0 || int(w) >= len(e.dead) || e.dead[w].Load()
}

// DeadWorkers returns the ids of workers confirmed dead by the failure
// detector, in ascending order.
func (e *Engine) DeadWorkers() []int32 {
	var out []int32
	for w := range e.dead {
		if e.dead[w].Load() {
			out = append(out, int32(w))
		}
	}
	return out
}

// ActiveTree returns a copy of group gid's currently active tree, as seen
// by the group's source worker, together with its version.
func (e *Engine) ActiveTree(gid int32) (*multicast.Tree, int32, bool) {
	if gid < 0 || int(gid) >= len(e.groupDescs) {
		return nil, 0, false
	}
	gs, ok := e.workers[e.groupDescs[gid].key.worker].groups[gid]
	if !ok {
		return nil, 0, false
	}
	tr, v, ok := gs.Load().activeTree()
	if !ok {
		return nil, 0, false
	}
	return tr.Clone(), v, true
}

// TasksOf returns operator op's live task ids under the current placement.
func (e *Engine) TasksOf(op string) []int32 {
	return append([]int32(nil), e.tv().assign.TasksOf[op]...)
}

// WorkerOfTask returns the worker hosting task tid under the current
// placement (retiredWorker for tasks retired by a shrink rescale).
func (e *Engine) WorkerOfTask(tid int32) int32 { return e.tv().assign.WorkerOf[tid] }

// handleWorkerFailure repairs this group's tree after a confirmed worker
// failure: the membership is re-applied without the dead worker, which
// cancels any in-flight switch (a dead member can never ack it) and sends
// the pruned tree — RemoveNode re-parents the orphaned subtree under
// surviving nodes with spare out-degree — to the survivors as a new version.
func (m *mcManager) handleWorkerFailure(dead int32) {
	survivors := make([]int32, 0, len(m.members))
	for _, w := range m.members {
		if w != dead {
			survivors = append(survivors, w)
		}
	}
	m.applyMembership(nil, survivors)
}
