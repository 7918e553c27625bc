package obs

import (
	"sync"
	"time"
)

// Event kinds. Tree events carry the multicast group, tree version and the
// M/D/1 inputs (λ, t_e, queue length) that drove the decision, so a
// reconfiguration can be replayed from the log alone.
const (
	// EventTreeRebuild: a multicast tree structure was built or activated.
	EventTreeRebuild = "tree-rebuild"
	// EventScaleUp: the controller initiated an active scale-up (§3.3).
	EventScaleUp = "scale-up"
	// EventScaleDown: the controller initiated a negative scale-down.
	EventScaleDown = "scale-down"
	// EventSwitchSkipped: a scale-up was rejected by the Theorem 5 guard.
	EventSwitchSkipped = "switch-skipped"
	// EventSwitchComplete: every member ACKed and the new tree activated.
	EventSwitchComplete = "switch-complete"
	// EventFlushReason: the RDMA channels' dominant flush trigger changed —
	// between idle (the link was free), MMS (batch full) and explicit.
	EventFlushReason = "flush-reason"
	// EventWorkerSuspect: the failure detector saw no traffic from a worker
	// for the suspicion timeout. Worker carries the suspect's id.
	EventWorkerSuspect = "worker-suspect"
	// EventWorkerRecover: a suspected worker produced traffic again before
	// confirmation.
	EventWorkerRecover = "worker-recover"
	// EventWorkerDead: a suspected worker stayed silent past the
	// confirmation timeout and was declared failed; tree repair follows.
	EventWorkerDead = "worker-dead"
	// EventLinkThrottled: a flow-controlled link crossed the high waterline.
	// Worker is the sender, Peer the congested destination.
	EventLinkThrottled = "link-throttled"
	// EventLinkPaused: a link's sender was starved of credit continuously
	// for the configured pause threshold; the destination is effectively
	// not draining.
	EventLinkPaused = "link-paused"
	// EventLinkOpen: a throttled or paused link drained below the low
	// waterline with credit available and reopened.
	EventLinkOpen = "link-open"
	// EventWorkerDegraded: a link stayed paused past the degraded
	// threshold; Peer names the slow subscriber, reported alongside the
	// failure detector's suspect/dead states.
	EventWorkerDegraded = "worker-degraded"
	// EventDrainTimeout: an engine Stop gave up draining in-flight tuples
	// after its bounded timeout; work may have been lost.
	EventDrainTimeout = "drain-timeout"
	// EventSnapshotComplete: every task acked a snapshot epoch and it was
	// committed to the checkpoint store. Epoch carries the epoch number.
	EventSnapshotComplete = "snapshot-complete"
	// EventSnapshotAbort: a snapshot epoch was discarded (timeout, worker
	// death mid-epoch, or a task-level snapshot/restore error — see Detail).
	EventSnapshotAbort = "snapshot-abort"
	// EventSnapshotRestore: recovery began — restore markers distributed,
	// rewinding every task to the committed epoch in Epoch (0 = reset to
	// initial state).
	EventSnapshotRestore = "snapshot-restore"
	// EventSnapshotRestored: every surviving task acked the restore; the
	// fence is active and sources have rewound.
	EventSnapshotRestored = "snapshot-restored"
	// EventWorkerJoined: the monitor admitted a new worker into the live
	// membership (CtrlJoin/CtrlWelcome handshake). Worker is the joiner.
	EventWorkerJoined = "worker-joined"
	// EventWorkerLeft: a worker left the membership gracefully (no tasks
	// hosted, heartbeats stopped); unlike worker-dead it may rejoin later.
	EventWorkerLeft = "worker-left"
	// EventRescaleStarted: a live operator rescale was requested; Detail
	// names the operator and the old->new parallelism. The rescale applies
	// at the commit of the next rescale-aligned checkpoint epoch.
	EventRescaleStarted = "rescale-started"
	// EventRescaleCommitted: the rescale-aligned checkpoint committed, the
	// new assignment/tree versions were applied, and every task (old and
	// new) acked the post-rescale restore. Epoch carries the aligned epoch.
	EventRescaleCommitted = "rescale-committed"
	// EventRescaleAborted: a pending rescale was rolled back before it ever
	// applied (worker death while the aligned checkpoint was in flight);
	// the pre-rescale assignment stays active — never a half-repartitioned
	// topology. Detail carries the reason.
	EventRescaleAborted = "rescale-aborted"
	// EventAutoscaleUp / EventAutoscaleDown: the M/D/1 autoscale
	// controller issued an operator rescale. Lambda/Te/QueueLen carry the
	// model inputs; Detail the operator, old->new parallelism and ρ.
	EventAutoscaleUp   = "autoscale-up"
	EventAutoscaleDown = "autoscale-down"
	// EventAutoscaleRejected: the controller decided to act but the
	// rescale plane refused the plan (one already in flight, recovery in
	// progress, ...); the operator enters backoff before retrying.
	EventAutoscaleRejected = "autoscale-rejected"
)

// Event is one structured entry in the reconfiguration event log.
type Event struct {
	Seq      int64   `json:"seq"`
	TimeNS   int64   `json:"time_ns"`
	Kind     string  `json:"kind"`
	Group    int32   `json:"group,omitempty"`
	Worker   int32   `json:"worker,omitempty"`
	Peer     int32   `json:"peer,omitempty"`
	Version  int32   `json:"version,omitempty"`
	OldDstar int     `json:"old_dstar,omitempty"`
	NewDstar int     `json:"new_dstar,omitempty"`
	Lambda   float64 `json:"lambda,omitempty"`
	Te       float64 `json:"te,omitempty"`
	QueueLen int     `json:"queue_len,omitempty"`
	Epoch    int64   `json:"epoch,omitempty"`
	Detail   string  `json:"detail,omitempty"`
}

// EventLog is a bounded ring of structured events with a subscriber API.
// Append assigns sequence numbers and timestamps; when the ring is full the
// oldest events are dropped. Safe for concurrent use.
type EventLog struct {
	mu      sync.Mutex
	cap     int
	buf     []Event // ring, ordered oldest..newest via head
	head    int     // index of the oldest event when len(buf) == cap
	nextSeq int64
	subs    map[int]chan Event
	nextSub int
}

// NewEventLog returns a log retaining up to capacity events (default 1024).
func NewEventLog(capacity int) *EventLog {
	if capacity <= 0 {
		capacity = eventCap
	}
	return &EventLog{cap: capacity, subs: map[int]chan Event{}}
}

// Append stamps ev with the next sequence number and the current time and
// stores it, fanning it out to subscribers (non-blocking: a slow
// subscriber's channel drops events rather than stalling the engine).
// The stamped event is returned.
func (l *EventLog) Append(ev Event) Event {
	l.mu.Lock()
	ev.Seq = l.nextSeq
	l.nextSeq++
	if ev.TimeNS == 0 {
		ev.TimeNS = time.Now().UnixNano()
	}
	if len(l.buf) < l.cap {
		l.buf = append(l.buf, ev)
	} else {
		l.buf[l.head] = ev
		l.head = (l.head + 1) % l.cap
	}
	subs := make([]chan Event, 0, len(l.subs))
	for _, ch := range l.subs {
		subs = append(subs, ch)
	}
	l.mu.Unlock()
	for _, ch := range subs {
		select {
		case ch <- ev:
		default:
		}
	}
	return ev
}

// Len returns the number of retained events.
func (l *EventLog) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.buf)
}

// Recent returns up to n retained events, oldest first (all of them when
// n <= 0).
func (l *EventLog) Recent(n int) []Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	total := len(l.buf)
	if n <= 0 || n > total {
		n = total
	}
	out := make([]Event, 0, n)
	for i := total - n; i < total; i++ {
		out = append(out, l.buf[(l.head+i)%len(l.buf)])
	}
	return out
}

// Subscribe returns a channel receiving every event appended from now on,
// buffered to buf entries, and a cancel function that must be called to
// release the subscription. Events are dropped, not blocked on, when the
// buffer is full.
func (l *EventLog) Subscribe(buf int) (<-chan Event, func()) {
	if buf <= 0 {
		buf = 64
	}
	ch := make(chan Event, buf)
	l.mu.Lock()
	id := l.nextSub
	l.nextSub++
	l.subs[id] = ch
	l.mu.Unlock()
	cancel := func() {
		l.mu.Lock()
		delete(l.subs, id)
		l.mu.Unlock()
	}
	return ch, cancel
}
