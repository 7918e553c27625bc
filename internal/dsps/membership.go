package dsps

import (
	"fmt"
	"sort"
	"time"

	"whale/internal/obs"
	"whale/internal/tuple"
)

// Elastic membership: graceful worker join/leave as the inverse of failure
// handling, plus the live-rescale entry point (see checkpoint.go for the
// epoch-aligned apply). Workers Workers..MaxWorkers-1 start dormant; a join
// admits one through the monitor with a CtrlJoin/CtrlWelcome handshake that
// is idempotent under duplicated or reordered frames: every CtrlJoin
// re-replies CtrlWelcome, but admission is gated on the joiner still
// awaiting its welcome — a stale retry processed after the handshake
// completed (and possibly after an intervening LeaveWorker) must not
// re-admit the worker.

// joinAttempts bounds the CtrlJoin retries before JoinWorker gives up.
const joinAttempts = 10

// joinedWorker reports whether w is part of the live membership.
func (e *Engine) joinedWorker(w int32) bool {
	return w >= 0 && int(w) < len(e.joined) && e.joined[w].Load()
}

// startHeartbeat launches one worker's beacon loop with a per-join stop
// channel so a graceful leave can silence it without touching the engine's
// global shutdown plumbing. Runs on the monitor loop (or in Start, before
// the loop exists), so the auxWG count it raises is still held open.
func (m *monitor) startHeartbeat(w *worker) {
	stop := make(chan struct{})
	m.hbStops[w.id] = stop
	m.eng.auxWG.Add(1)
	go m.eng.heartbeatLoop(w, stop)
}

// JoinWorker admits dormant worker id into the live membership through the
// monitor: CtrlJoin frames (Version carries the attempt number) retried
// under bounded backoff until a CtrlWelcome lands. Without a failure
// detector there is no monitor to coordinate with, so admission is local.
// Joining is idempotent at the monitor; a confirmed-dead worker can never
// rejoin (confirmation is terminal — its id stays fenced).
func (e *Engine) JoinWorker(id int32) error {
	if id < 0 || int(id) >= e.cfg.MaxWorkers {
		return fmt.Errorf("dsps: join of unknown worker %d (MaxWorkers %d)", id, e.cfg.MaxWorkers)
	}
	var welcome chan struct{}
	err := e.mon.do(func() (err error) {
		welcome, err = e.mon.beginJoin(id)
		return err
	})
	if err != nil || welcome == nil {
		return err
	}

	enc := tuple.NewEncoder()
	backoff := e.cfg.HeartbeatInterval
	for attempt := int32(1); attempt <= joinAttempts; attempt++ {
		cm := tuple.ControlMessage{Type: tuple.CtrlJoin, Node: id, Version: attempt}
		// Like heartbeats, the handshake bypasses the transfer queue: the
		// joiner hosts no tasks yet, but a send-thread stall elsewhere must
		// not be able to delay admission.
		_ = e.workers[id].tr.Send(e.detector.monitor, enc.EncodeControlEnvelope(&cm))
		select {
		case <-welcome:
			return nil
		case <-e.stopping:
			return fmt.Errorf("dsps: engine stopping during join of worker %d", id)
		case <-time.After(backoff):
		}
		if backoff < 500*time.Millisecond {
			backoff *= 2
		}
	}
	return fmt.Errorf("dsps: worker %d join timed out after %d attempts", id, joinAttempts)
}

// beginJoin validates a join and opens (or re-opens, after a timed-out
// attempt) the wait its CtrlWelcome resolves. A nil channel with a nil
// error means the worker was admitted on the spot.
func (m *monitor) beginJoin(id int32) (chan struct{}, error) {
	e := m.eng
	if e.workerDead(id) {
		return nil, fmt.Errorf("dsps: worker %d is confirmed dead and cannot rejoin", id)
	}
	if e.joinedWorker(id) {
		return nil, fmt.Errorf("dsps: worker %d already joined", id)
	}
	if e.detector == nil {
		m.admit(id)
		return nil, nil
	}
	welcome, ok := m.joining[id]
	if !ok {
		welcome = make(chan struct{})
		m.joining[id] = welcome
	}
	return welcome, nil
}

// admit performs the monitor-side admission. Idempotent: the first call
// flips the membership bit and logs the event; every call refreshes the
// liveness clock so the sweep cannot suspect a worker between its admission
// and its first heartbeat.
func (m *monitor) admit(id int32) {
	e := m.eng
	if e.workerDead(id) {
		return
	}
	if fd := e.detector; fd != nil {
		fd.lastSeen[id].Store(time.Now().UnixNano())
		fd.state[id] = wsAlive
	}
	if !e.joined[id].Load() {
		e.joined[id].Store(true)
		e.obs.Events.Append(obs.Event{
			Kind: obs.EventWorkerJoined, Worker: id,
			Detail: "admitted by monitor; membership grown",
		})
	}
}

// onJoin handles a CtrlJoin at the monitor. Admission is gated on a
// JoinWorker call still awaiting its welcome: once the handshake has
// completed not a single stale retry can re-admit the worker — in
// particular not after an intervening LeaveWorker, whose heartbeats are
// stopped and whose re-admission the sweep would therefore confirm dead.
// Every CtrlJoin re-replies CtrlWelcome regardless, so a lost or reordered
// welcome is healed by the joiner's next retry.
func (m *monitor) onJoin(ev ctrlJoin) {
	if _, ok := m.joining[ev.node]; ok {
		m.admit(ev.node)
	}
	m.eng.workers[m.eng.detector.monitor].sendControl(
		&tuple.ControlMessage{Type: tuple.CtrlWelcome, Node: ev.node, Version: ev.attempt}, ev.node)
}

// onWelcome resolves the joiner-side wait when its CtrlWelcome arrives and
// starts the joiner's beacon. Duplicate welcomes (the monitor re-replies
// per CtrlJoin) are no-ops.
func (m *monitor) onWelcome(id int32) {
	// Resolve only once the admission is visible: the monitor admits before
	// it replies, so a welcome observed while the worker is still unjoined
	// is a stale frame from an earlier handshake (this join's own CtrlJoin
	// has not been processed yet) — resolving on it would delete the wait
	// entry onJoin gates on and strand the join unadmitted.
	if !m.eng.joinedWorker(id) {
		return
	}
	if welcome, ok := m.joining[id]; ok {
		delete(m.joining, id)
		m.startHeartbeat(m.eng.workers[id])
		close(welcome)
	}
}

// LeaveWorker removes worker id from the live membership gracefully. Only a
// worker hosting no live tasks may leave (rescale it empty first), the
// monitor never leaves, and a dead worker has nothing to leave. Unlike
// failure confirmation, leaving is not terminal: the worker keeps its
// transport and loops running and may JoinWorker again later.
func (e *Engine) LeaveWorker(id int32) error {
	return e.mon.do(func() error { return e.mon.leave(id) })
}

func (m *monitor) leave(id int32) error {
	e := m.eng
	if !e.joinedWorker(id) {
		return fmt.Errorf("dsps: worker %d is not joined", id)
	}
	if e.workerDead(id) {
		return fmt.Errorf("dsps: worker %d is confirmed dead", id)
	}
	if id == 0 {
		return fmt.Errorf("dsps: worker 0 hosts the monitor and cannot leave")
	}
	if tasks := e.tv().assign.LocalTasks(id); len(tasks) > 0 {
		return fmt.Errorf("dsps: worker %d still hosts %d tasks", id, len(tasks))
	}
	// A requested-but-unapplied plan that places tasks on id applies at a
	// later epoch commit; a host that left in between would carry the new
	// tasks while unjoined — invisible to the failure sweep.
	if c := e.ckpt; c != nil && c.pendingRescale != nil && len(c.pendingRescale.newAssign.LocalTasks(id)) > 0 {
		return fmt.Errorf("dsps: worker %d is a placement target of a pending rescale", id)
	}
	if stop, ok := m.hbStops[id]; ok {
		delete(m.hbStops, id)
		close(stop)
	}
	e.joined[id].Store(false)
	if fd := e.detector; fd != nil {
		// Reset the liveness state so a later rejoin starts clean instead of
		// inheriting pre-leave silence.
		fd.state[id] = wsAlive
		fd.lastSeen[id].Store(time.Now().UnixNano())
	}
	e.obs.Events.Append(obs.Event{
		Kind: obs.EventWorkerLeft, Worker: id,
		Detail: "graceful leave; worker may rejoin",
	})
	return nil
}

// WorkerStatus is one worker's row in the membership report.
type WorkerStatus struct {
	ID       int32   `json:"id"`
	Joined   bool    `json:"joined"`
	State    string  `json:"state"` // alive | suspect | dead | dormant
	Degraded bool    `json:"degraded,omitempty"`
	Tasks    []int32 `json:"tasks,omitempty"`
}

// GroupStatus is one multicast group's row in the membership report.
type GroupStatus struct {
	Group         int32   `json:"group"`
	Operator      string  `json:"operator"`
	Stream        string  `json:"stream"`
	SourceWorker  int32   `json:"source_worker"`
	ActiveVersion int32   `json:"active_version"`
	Members       []int32 `json:"members"`
	SwitchPending bool    `json:"switch_pending"`
}

// OperatorPlacement is one operator's row in the membership report.
type OperatorPlacement struct {
	Operator    string  `json:"operator"`
	Parallelism int     `json:"parallelism"`
	Tasks       []int32 `json:"tasks"`
	Workers     []int32 `json:"workers"`
}

// MembershipReport is the full elastic-membership dump served on
// /debug/membership and by `whaled -membership`.
type MembershipReport struct {
	MaxWorkers     int                 `json:"max_workers"`
	Workers        []WorkerStatus      `json:"workers"`
	Groups         []GroupStatus       `json:"groups,omitempty"`
	Operators      []OperatorPlacement `json:"operators"`
	RescalePending bool                `json:"rescale_pending"`
}

// Membership snapshots the cluster's elastic state: per-worker liveness as
// the detector sees it, each multicast group's live membership and active
// tree version, and the current (possibly rescaled) operator placement.
func (e *Engine) Membership() MembershipReport {
	var rep MembershipReport
	e.mon.read(func() { rep = e.mon.membership() })
	return rep
}

func (m *monitor) membership() MembershipReport {
	e := m.eng
	tv := e.tv()
	rep := MembershipReport{MaxWorkers: e.cfg.MaxWorkers}
	for id := int32(0); int(id) < e.cfg.MaxWorkers; id++ {
		ws := WorkerStatus{ID: id, Joined: e.joinedWorker(id), Tasks: tv.assign.LocalTasks(id)}
		switch {
		case e.workerDead(id):
			ws.State = "dead"
		case !ws.Joined:
			ws.State = "dormant"
		case e.detector != nil && e.detector.state[id] == wsSuspect:
			ws.State = "suspect"
		default:
			ws.State = "alive"
		}
		if e.detector != nil {
			ws.Degraded = e.detector.degraded[id].Load()
		}
		rep.Workers = append(rep.Workers, ws)
	}
	for _, desc := range e.groupDescs { // ascending group id
		gid, mgr := desc.id, e.managers[desc.id]
		active := e.workers[desc.key.worker].groups[gid].Load().active
		rep.Groups = append(rep.Groups, GroupStatus{
			Group: gid, Operator: desc.key.op, Stream: desc.key.stream,
			SourceWorker: desc.key.worker, ActiveVersion: active,
			Members:       append([]int32(nil), mgr.members...),
			SwitchPending: mgr.pendingVersion != 0,
		})
	}
	for _, op := range e.topo.Order {
		if op == ackerOperatorID {
			continue
		}
		tids := tv.assign.TasksOf[op]
		rep.Operators = append(rep.Operators, OperatorPlacement{
			Operator: op, Parallelism: len(tids),
			Tasks:   append([]int32(nil), tids...),
			Workers: tv.assign.WorkersOf(op),
		})
	}
	if e.ckpt != nil {
		rep.RescalePending = e.ckpt.rescalePending()
	}
	return rep
}

// Rescale changes operator op's parallelism to newPar, live: the request
// arms at the next checkpoint epoch, the epoch's commit is the rescale-
// aligned cut, and the apply (new executors, swapped placement view, tree
// membership, state split/merge, source rewind) rides the existing fenced
// restore machinery — exactly-once is preserved end to end. Optional `on`
// workers receive the new tasks (grow only, one per new task); by default
// the least-loaded live joined workers are chosen. A worker death while the
// aligned epoch is in flight deterministically aborts the rescale — the
// pre-rescale assignment stays active, never a half-repartitioned topology.
func (e *Engine) Rescale(op string, newPar int, on ...int32) error {
	return e.mon.do(func() error { return e.mon.rescale(op, newPar, on) })
}

// rescale validates, places and arms one parallelism change. Placement is
// checked here and never again: between this call and the aligned cut a
// target can neither leave (leave rejects the targets of a pending plan) nor
// die unnoticed (a confirmed death aborts the pending plan), and all three
// run on this loop.
func (m *monitor) rescale(op string, newPar int, on []int32) error {
	e := m.eng
	if e.ckpt == nil {
		return fmt.Errorf("dsps: rescale requires checkpointing (Config.CheckpointInterval)")
	}
	spec, ok := e.topo.Operators[op]
	if !ok || op == ackerOperatorID {
		return fmt.Errorf("dsps: rescale of unknown operator %q", op)
	}
	if spec.IsSpout {
		return fmt.Errorf("dsps: spout %q cannot be rescaled live (source parallelism is bound to its partitions)", op)
	}
	if newPar > NumSlots && e.topo.fieldsGrouped(op) {
		// Key routing sends slot s to task index s mod parallelism over a
		// NumSlots-wide slot space: task indices >= NumSlots would never be
		// selected, silently starving them.
		return fmt.Errorf("dsps: fields-grouped operator %q cannot exceed parallelism %d (NumSlots)", op, NumSlots)
	}
	assign := e.tv().assign
	oldPar := len(assign.TasksOf[op])
	if newPar == oldPar {
		return fmt.Errorf("dsps: %q already at parallelism %d", op, newPar)
	}
	var placeOn []int32
	if newPar > oldPar {
		var err error
		if placeOn, err = e.pickPlacement(assign, op, newPar-oldPar, on); err != nil {
			return err
		}
	} else if len(on) > 0 {
		return fmt.Errorf("dsps: placement targets are only meaningful when growing")
	}
	next, err := assign.Rescaled(op, newPar, placeOn)
	if err != nil {
		return err
	}
	return e.ckpt.requestRescale(op, newPar, next)
}

// pickPlacement chooses the hosting worker for each new task: explicit
// targets when given (validated live + joined), else the least-loaded live
// joined workers, ties broken by id for determinism.
func (e *Engine) pickPlacement(a *Assignment, op string, n int, on []int32) ([]int32, error) {
	if len(on) > 0 {
		if len(on) != n {
			return nil, fmt.Errorf("dsps: rescale of %q adds %d tasks but %d placement targets given", op, n, len(on))
		}
		for _, w := range on {
			if !e.joinedWorker(w) {
				return nil, fmt.Errorf("dsps: placement target %d is not a joined worker", w)
			}
			if e.workerDead(w) {
				return nil, fmt.Errorf("dsps: placement target %d is dead", w)
			}
		}
		return append([]int32(nil), on...), nil
	}
	type load struct {
		w     int32
		tasks int
	}
	var cands []load
	for w := int32(0); int(w) < e.cfg.MaxWorkers; w++ {
		if e.joinedWorker(w) && !e.workerDead(w) {
			cands = append(cands, load{w: w, tasks: len(a.LocalTasks(w))})
		}
	}
	if len(cands) == 0 {
		return nil, fmt.Errorf("dsps: no live joined worker to place %q tasks on", op)
	}
	out := make([]int32, 0, n)
	for i := 0; i < n; i++ {
		sort.Slice(cands, func(x, y int) bool {
			if cands[x].tasks != cands[y].tasks {
				return cands[x].tasks < cands[y].tasks
			}
			return cands[x].w < cands[y].w
		})
		out = append(out, cands[0].w)
		cands[0].tasks++
	}
	return out, nil
}

// groupMembership recomputes one group's worker->tasks map and member list
// under assignment a (the same derivation buildGroups used at start).
func (e *Engine) groupMembership(desc *groupDesc, a *Assignment) (map[int32][]int32, []int32) {
	localTasks := map[int32][]int32{}
	memberSet := map[int32]bool{}
	for _, op := range desc.dstOps {
		for _, tid := range a.TasksOf[op] {
			w := a.WorkerOf[tid]
			localTasks[w] = append(localTasks[w], tid)
			memberSet[w] = true
		}
	}
	members := make([]int32, 0, len(memberSet))
	for w := range memberSet {
		if w != desc.key.worker {
			members = append(members, w)
		}
	}
	sort.Slice(members, func(i, j int) bool { return members[i] < members[j] })
	return localTasks, members
}

// opIsSink reports whether no operator subscribes to op — the same sink
// derivation Start uses (the ack plane's subscriptions are invisible).
func (e *Engine) opIsSink(op string) bool {
	for _, id := range e.topo.Order {
		if id == ackerOperatorID {
			continue
		}
		for _, s := range e.topo.Operators[id].Subs {
			if s.SrcOperator == op {
				return false
			}
		}
	}
	return op != ackerOperatorID
}
