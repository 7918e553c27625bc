package dsps

import (
	"math/rand"
	"time"

	"whale/internal/tuple"
)

// Reliability (acking) layer: the Storm-style XOR ack tracking the paper's
// base system provides. Every reliably-emitted spout tuple opens a
// reliability tree identified by a random RootID; each tuple in the tree
// carries a random AckVal. Executors report, per processed input, the XOR
// of the input's AckVal and the AckVals of all tuples emitted while
// processing it. The acker task XORs everything per root: the register
// reaches zero exactly when every tuple in the tree has been processed,
// at which point the spout's Ack callback fires. A timeout fails the root.

// Internal operator and stream names of the acking plane. Ack frames carry
// no fields: the header's RootID names the tree, AckVal carries the frame's
// value and SrcTask the sending task, so a frame boxes nothing.
const (
	ackerOperatorID = "__acker"
	streamAckInit   = "__ack_init" // spout -> acker: AckVal = the root's XOR, SrcTask = the spout
	streamAck       = "__ack"      // bolt -> acker: AckVal = the input's XOR
	streamAckFail   = "__ack_fail" // bolt -> acker: AckVal unused
	streamAckEvent  = "__ack_ev"   // acker -> spout: AckVal = 1 acked, 0 failed
	streamAckTick   = "__ack_tick" // engine -> acker timeout sweep
)

// ReliableSpout is a Spout that wants completion callbacks for tuples
// emitted with Collector.EmitReliable. Ack and Fail run on the spout's
// executor goroutine, between Next calls.
type ReliableSpout interface {
	Spout
	// Ack reports that the tuple emitted with msgID was fully processed.
	Ack(msgID int64)
	// Fail reports that the tuple's reliability tree timed out or was
	// explicitly failed by a bolt.
	Fail(msgID int64)
}

// ackEntry tracks one reliability tree at the acker.
type ackEntry struct {
	xor       int64
	spoutTask int32
	hasInit   bool
	deadline  int64 // engine-clock ns
	emitNS    int64
}

// ackerBolt is the internal acker operator. Its table holds entries by
// value, written back after each change, so a tree costs no allocation of
// its own.
type ackerBolt struct {
	eng     *Engine
	timeout time.Duration
	pending map[int64]ackEntry
}

// Prepare implements Bolt.
func (a *ackerBolt) Prepare(*TaskContext) { a.pending = map[int64]ackEntry{} }

// Execute implements Bolt.
func (a *ackerBolt) Execute(tp *tuple.Tuple, c *Collector) {
	root := tp.RootID
	switch tp.Stream {
	case streamAckInit:
		e := a.pending[root]
		e.xor ^= tp.AckVal
		e.spoutTask = tp.SrcTask
		e.hasInit = true
		e.emitNS = tp.RootEmitNS
		e.deadline = time.Now().UnixNano() + a.timeout.Nanoseconds()
		a.settle(root, e, c)
	case streamAck:
		e := a.pending[root]
		e.xor ^= tp.AckVal
		a.settle(root, e, c)
	case streamAckFail:
		if e, ok := a.pending[root]; ok && e.hasInit {
			a.finish(root, e, false, c)
		} else {
			delete(a.pending, root)
		}
	case streamAckTick:
		now := time.Now().UnixNano()
		for root, e := range a.pending {
			if e.deadline > 0 && now > e.deadline {
				if e.hasInit {
					a.finish(root, e, false, c)
				} else {
					delete(a.pending, root)
				}
			} else if e.deadline == 0 {
				// An ack arrived before its init (reordering across
				// workers): expire it on the next sweep if the init never
				// shows up.
				e.deadline = now + a.timeout.Nanoseconds()
				a.pending[root] = e
			}
		}
	}
}

// settle finishes a balanced tree or writes the updated entry back.
func (a *ackerBolt) settle(root int64, e ackEntry, c *Collector) {
	if e.hasInit && e.xor == 0 {
		a.finish(root, e, true, c)
		return
	}
	a.pending[root] = e
}

// finish notifies the owning spout task and drops the entry.
func (a *ackerBolt) finish(root int64, e ackEntry, ok bool, c *Collector) {
	delete(a.pending, root)
	if ok {
		a.eng.metrics.TuplesAcked.Inc()
		if e.emitNS > 0 {
			a.eng.metrics.CompleteLatency.Observe(time.Now().UnixNano() - e.emitNS)
		}
	} else {
		a.eng.metrics.TuplesFailed.Inc()
	}
	okVal := int64(0)
	if ok {
		okVal = 1
	}
	tp := c.ex.tuples.New()
	*tp = tuple.Tuple{
		Stream:  streamAckEvent,
		SrcTask: c.ex.ctx.TaskID,
		RootID:  root,
		AckVal:  okVal,
	}
	c.ex.sendDirect(e.spoutTask, tp)
}

// Cleanup implements Bolt.
func (a *ackerBolt) Cleanup() {}

// withAcking returns a copy of the topology with the acker operator wired
// to every user operator's ack streams.
func withAcking(t *Topology, eng *Engine, ackers int, timeout time.Duration) *Topology {
	spec := &OperatorSpec{
		ID:          ackerOperatorID,
		Parallelism: ackers,
		BoltFn:      func() Bolt { return &ackerBolt{eng: eng, timeout: timeout} },
	}
	for _, id := range t.Order {
		op := t.Operators[id]
		if op.IsSpout {
			spec.Subs = append(spec.Subs, Subscription{SrcOperator: id, Stream: streamAckInit, Type: FieldsGrouping})
		}
		spec.Subs = append(spec.Subs,
			Subscription{SrcOperator: id, Stream: streamAck, Type: FieldsGrouping},
			Subscription{SrcOperator: id, Stream: streamAckFail, Type: FieldsGrouping},
		)
	}
	ops := make(map[string]*OperatorSpec, len(t.Operators)+1)
	for k, v := range t.Operators {
		ops[k] = v
	}
	ops[ackerOperatorID] = spec
	return &Topology{
		Operators: ops,
		Order:     append(append([]string(nil), t.Order...), ackerOperatorID),
	}
}

// ack-plane helpers on the executor ----------------------------------------

// sendDirect routes a tuple to one explicit task, bypassing groupings
// (used by the acker to reach the owning spout task).
func (ex *executor) sendDirect(dst int32, tp *tuple.Tuple) {
	dw := ex.w.eng.tv().assign.WorkerOf[dst]
	if dw == ex.w.id {
		ex.w.enqueueLocal(dst, tp)
		return
	}
	ex.w.enqueueSend(sendJob{kind: jobPointToPoint, tp: tp, dstTask: dst, dstWorker: dw})
}

// ackContrib mixes an edge's AckVal with one destination task id into that
// destination's ack contribution (splitmix64 finalizer). Sender and
// receiver compute it independently: the sender XORs one contribution per
// destination into the tree's register, the receiver cancels its own when
// it processes the tuple. Mixing the task id in makes one-to-many edges
// sound — N receivers of the same AckVal contribute N distinct values
// instead of cancelling pairwise. Never returns 0 (the XOR identity).
// Called from the route hot path: pure arithmetic, no allocation.
func ackContrib(ackVal int64, task int32) int64 {
	x := uint64(ackVal) ^ (uint64(uint32(task))*0x9E3779B97F4A7C15 + 0x632BE59BD9B4E019)
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	if x == 0 {
		x = 1
	}
	return int64(x)
}

// nonzeroRand draws a non-zero random int64 (zero is the "untracked"
// sentinel for RootID and the identity for XOR).
func nonzeroRand(r *rand.Rand) int64 {
	for {
		if v := r.Int63(); v != 0 {
			return v
		}
	}
}

// drainSpoutEvents processes queued ack events without blocking; when
// block is set it waits for at least one event (or engine shutdown).
func (ex *executor) drainSpoutEvents(block bool) {
	for {
		batch := ex.take()
		for i := range batch {
			ex.handleSpoutEvent(batch[i].at.Data)
			ex.inbox.done()
		}
		if len(batch) > 0 || !block {
			return
		}
		select {
		case <-ex.inbox.kick:
		case <-ex.w.eng.stopSpouts:
			return
		case <-ex.w.done:
			return
		}
	}
}

func (ex *executor) handleSpoutEvent(tp *tuple.Tuple) {
	switch tp.Stream {
	case streamCkptTrigger:
		ex.onTrigger(tp)
		return
	case streamCkptRestore:
		ex.onRestore(tp)
		return
	case streamAckEvent:
	default:
		return
	}
	root := tp.RootID
	msgID, ok := ex.pendingRoots[root]
	if !ok {
		return
	}
	delete(ex.pendingRoots, root)
	rs, isReliable := ex.spout.(ReliableSpout)
	if !isReliable {
		return
	}
	if tp.AckVal == 1 {
		rs.Ack(msgID)
	} else {
		rs.Fail(msgID)
	}
}
