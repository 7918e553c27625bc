package dsps

import (
	"math/rand"
	"sort"
	"sync/atomic"
	"time"

	"whale/internal/metrics"
	"whale/internal/obs"
	"whale/internal/tuple"
)

// Collector is handed to spouts and bolts to emit tuples. It is bound to
// one executor and must only be used from that executor's goroutine (or,
// for spouts, the spout loop).
type Collector struct {
	ex   *executor
	test func(stream string, values []tuple.Value)
}

// NewTestCollector returns a detached collector that hands every emission
// to fn instead of routing it through an engine — for unit-testing Spout
// and Bolt implementations in isolation.
func NewTestCollector(fn func(stream string, values []tuple.Value)) *Collector {
	return &Collector{test: fn}
}

// Emit sends a tuple on the operator's default stream (named after the
// operator).
func (c *Collector) Emit(values ...tuple.Value) {
	if c.test != nil {
		c.test("", values)
		return
	}
	c.EmitTo(c.ex.ctx.OperatorID, values...)
}

// EmitTo sends a tuple on a named stream.
func (c *Collector) EmitTo(stream string, values ...tuple.Value) {
	if c.test != nil {
		c.test(stream, values)
		return
	}
	c.ex.emit(stream, values)
}

// EmitReliable sends a tuple on the default stream with reliability
// tracking: when every downstream descendant has been processed the
// spout's Ack(msgID) fires; on timeout or explicit failure, Fail(msgID).
// Only valid in spouts, with Config.AckEnabled.
func (c *Collector) EmitReliable(msgID int64, values ...tuple.Value) {
	c.EmitReliableTo(c.ex.ctx.OperatorID, msgID, values...)
}

// EmitReliableTo is EmitReliable on a named stream.
func (c *Collector) EmitReliableTo(stream string, msgID int64, values ...tuple.Value) {
	if c.test != nil {
		c.test(stream, values)
		return
	}
	c.ex.emitReliable(stream, msgID, values)
}

// Fail marks the bolt's current input tuple as failed: its reliability
// tree fails immediately at the acker instead of completing. Implies NoAck.
func (c *Collector) Fail() {
	if c.test != nil {
		return
	}
	c.ex.failCurrent = true
}

// NoAck suppresses the automatic acknowledgement of the bolt's current
// input tuple. The tuple's tree will neither complete nor fail until the
// ack timeout expires — use for at-most-once handoffs or to simulate loss.
func (c *Collector) NoAck() {
	if c.test != nil {
		return
	}
	c.ex.suppressAck = true
}

// executor runs one task instance: a goroutine consuming the inbound queue
// (bolts) or driving the spout loop (spouts).
type executor struct {
	ctx    TaskContext
	w      *worker
	rt     *router
	spec   *OperatorSpec // kept for routing rebuilds after a rescale
	isSink bool
	spout  Spout
	bolt   Bolt
	col    *Collector
	nextID int64
	// tuples holds the tuples this executor constructs: emit, like nextID,
	// runs on the executor's goroutine only.
	tuples   tuple.Slab
	curRoot  int64 // root-emit timestamp inherited from the tuple being executed
	curTrace int64 // trace ID inherited from the tuple being executed

	ops *opMetrics
	// execs counts this executor's executions: the sampling counter of
	// execute's clock reads (this goroutine only).
	execs int64

	// inbox is the executor's one input queue — remote and local tuples,
	// markers and ticks, in put order — taken a batch at a time, so one
	// link's tuples arrive in order (DESIGN §13's barriers rely on it). At
	// queueCap untaken entries local producers wait on room, and a remote
	// tuple's unit is owed until taken: a stalled task stops its own
	// senders, not its siblings'. Those senders' windows bound the overflow.
	inbox    *mailbox[inboxEntry]
	untaken  atomic.Int64  // entries put and not yet taken
	queueCap int64         // Config.ExecutorQueueCap
	room     chan struct{} // cap 1: rung after every take
	owedBy   []int64       // per source worker: a taken batch's owed units

	// Reliability state.
	rng          *rand.Rand
	pendingRoots map[int64]int64 // rootID -> spout msgID
	curRootID    int64
	curInAck     int64
	xorAcc       int64
	suppressAck  bool
	failCurrent  bool

	// Checkpoint state (see checkpoint.go). epochStamp is the epoch
	// interval currently being emitted, stamped on every outgoing tuple;
	// fenceEpoch discards replayed in-flight tuples older than the last
	// restore. Both are 0 with checkpointing disabled. All fields below are
	// touched only on this executor's goroutine, except alignParked (drain
	// accounting).
	epochStamp  int64
	fenceEpoch  int64
	aligning    *alignState
	upstream    []int32 // every task of every subscribed-to operator
	alignParked atomic.Int64
}

// inboxEntry is one tuple in an executor's inbox.
type inboxEntry struct {
	at      tuple.AddressedTuple
	owed    bool  // its delivery unit is granted on take, not on put
	stampNS int64 // a traced tuple's put time, zero for untraced ones
}

func newExecutor(w *worker, ctx TaskContext, spec *OperatorSpec, assign *Assignment, rt *router, isSink bool, queueCap int) *executor {
	ops := &opMetrics{} // this executor's private share, merged on read
	w.eng.addOpShare(ctx.OperatorID, ops)
	ex := &executor{
		ctx:      ctx,
		w:        w,
		rt:       rt,
		spec:     spec,
		isSink:   isSink,
		ops:      ops,
		inbox:    newMailbox[inboxEntry](),
		queueCap: int64(queueCap),
		room:     make(chan struct{}, 1),
		owedBy:   make([]int64, w.eng.cfg.MaxWorkers),
		rng:      rand.New(rand.NewSource(int64(ctx.TaskID)*7919 + 1)),
	}
	ex.col = &Collector{ex: ex}
	if spec.IsSpout {
		ex.spout = spec.SpoutFn()
		ex.pendingRoots = map[int64]int64{}
	} else {
		ex.bolt = spec.BoltFn()
		ex.upstream = upstreamTasks(spec, assign)
	}
	if w.eng.cfg.CheckpointInterval > 0 {
		ex.epochStamp = 1 // emitting into the first epoch interval
	}
	return ex
}

// upstreamTasks lists every task of every subscribed-to operator under
// assignment a — the set barrier alignment waits on (deduplicated across
// streams: alignment is per task, not per edge).
func upstreamTasks(spec *OperatorSpec, a *Assignment) []int32 {
	seen := map[int32]bool{}
	var out []int32
	for _, sub := range spec.Subs {
		for _, tid := range a.TasksOf[sub.SrcOperator] {
			if !seen[tid] {
				seen[tid] = true
				out = append(out, tid)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// rebuildRouting re-derives this executor's router, upstream set and task
// context from the engine's current placement view. Called on the
// executor's own goroutine at restore-marker time, so it never races
// Execute: emissions before the rebuild are pre-fence (discarded
// downstream), emissions after it route over the post-rescale placement.
func (ex *executor) rebuildRouting() {
	tv := ex.w.eng.tv()
	ex.rt = newRouter(ex.w.eng.topo, tv.assign, ex.ctx.OperatorID, ex.w.id)
	if ex.bolt != nil {
		ex.upstream = upstreamTasks(ex.spec, tv.assign)
	}
	if int(ex.ctx.TaskID) < len(tv.assign.Tasks) {
		tc := tv.assign.Tasks[ex.ctx.TaskID]
		if !tv.assign.retired(ex.ctx.TaskID) {
			ex.ctx.TaskIndex, ex.ctx.Parallelism = tc.TaskIndex, tc.Parallelism
		}
	}
}

// put appends at to the inbox without waiting, and reports whether its unit
// is owed: a remote tuple put behind queueCap untaken entries.
func (ex *executor) put(at tuple.AddressedTuple) (owed bool) {
	var stamp int64
	if at.Data.TraceID != 0 {
		stamp = time.Now().UnixNano()
	}
	owed = ex.untaken.Add(1) > ex.queueCap && at.Src != tuple.LocalSrc
	ex.inbox.put(inboxEntry{at: at, owed: owed, stampNS: stamp})
	return owed
}

// awaitRoom waits for fewer than queueCap untaken entries, or reports false
// once the worker stops. A waiter passes take's ring on to the next one.
func (ex *executor) awaitRoom() bool {
	for ex.untaken.Load() >= ex.queueCap {
		select {
		case <-ex.room:
		case <-ex.w.done:
			return false
		}
	}
	signal(ex.room)
	return true
}

// take returns every entry put since the previous take, in put order, and
// rings room. It grants the owed units, one grant per source worker, and
// records each traced entry's put-to-take residency as an exec_queue_wait
// stall. Consumer only; the caller calls inbox.done per entry. An empty
// inbox costs an atomic load: the spout loop looks between every two emits.
func (ex *executor) take() []inboxEntry {
	if ex.untaken.Load() == 0 {
		return nil
	}
	batch := ex.inbox.take()
	if len(batch) == 0 {
		return nil
	}
	ex.untaken.Add(-int64(len(batch)))
	signal(ex.room)
	var owed bool
	var now int64
	for i := range batch {
		e := &batch[i]
		if e.owed && uint(e.at.Src) < uint(len(ex.owedBy)) {
			ex.owedBy[e.at.Src]++
			owed = true
		}
		if e.stampNS != 0 {
			if now == 0 {
				now = time.Now().UnixNano()
			}
			wait := now - e.stampNS
			ex.w.eng.metrics.ExecQueueWaitNS.Add(wait)
			ex.w.execQueueWaitNS.Add(wait)
			ex.w.eng.obs.Tracer.RecordHop(e.at.Data.TraceID, obs.StallExecQueueWait,
				ex.w.id, e.at.Src, 0, 0, 0, time.Unix(0, e.stampNS), time.Duration(wait))
		}
	}
	if owed {
		for src, n := range ex.owedBy {
			if n > 0 {
				ex.w.grantData(int32(src), n)
				ex.owedBy[src] = 0
			}
		}
	}
	return batch
}

// queueLen is the executor's queued-tuple depth: entries put and not yet
// done, a taken batch included.
func (ex *executor) queueLen() int { return ex.inbox.len() }

// emit routes one tuple to all subscribers. It is the hot path: local
// destinations are enqueued directly (Storm's local fast path, no
// serialization); remote destinations become jobs on the worker's transfer
// queue, where the send thread pays the serialization cost per the
// configured communication mechanism.
func (ex *executor) emit(stream string, values []tuple.Value) {
	ex.nextID++
	tp := ex.tuples.New()
	*tp = tuple.Tuple{
		Stream:     stream,
		Values:     values,
		ID:         ex.nextID,
		SrcTask:    ex.ctx.TaskID,
		RootEmitNS: ex.curRoot,
		Epoch:      ex.epochStamp,
	}
	if tp.RootEmitNS == 0 {
		tp.RootEmitNS = time.Now().UnixNano()
	}
	// Trace propagation: descendants inherit the input's trace ID; fresh
	// spout roots ask the sampler.
	if ex.curTrace == 0 && ex.spout != nil && !isAckStream(stream) {
		ex.curTrace = ex.w.eng.obs.Tracer.Sample()
	}
	tp.TraceID = ex.curTrace
	// Anchor to the current input's reliability tree (bolts only; the ack
	// plane's own streams stay untracked to avoid infinite regress).
	if ex.curRootID != 0 && !isAckStream(stream) {
		tp.RootID = ex.curRootID
		tp.AckVal = nonzeroRand(ex.rng)
	}
	// route returns the XOR of per-destination ack contributions (0 for
	// untracked tuples), which the sender owes the acker for this input.
	ex.xorAcc ^= ex.route(tp, tp.RootID != 0)
}

// emitReliable starts a reliability tree for a spout emission.
func (ex *executor) emitReliable(stream string, msgID int64, values []tuple.Value) {
	if ex.spout == nil || !ex.w.eng.cfg.AckEnabled {
		// Without the ack plane this degrades to a plain emit.
		ex.emit(stream, values)
		return
	}
	ex.nextID++
	root := nonzeroRand(ex.rng)
	tp := ex.tuples.New()
	*tp = tuple.Tuple{
		Stream:     stream,
		Values:     values,
		ID:         ex.nextID,
		SrcTask:    ex.ctx.TaskID,
		RootEmitNS: time.Now().UnixNano(),
		RootID:     root,
		AckVal:     nonzeroRand(ex.rng),
		TraceID:    ex.w.eng.obs.Tracer.Sample(),
		Epoch:      ex.epochStamp,
	}
	ex.curTrace = tp.TraceID
	ex.pendingRoots[root] = msgID
	ex.curRoot = tp.RootEmitNS
	// Route the data first: the init must carry the XOR of the actual
	// per-destination contributions, which route computes as it fans out.
	// The acker tolerates acks arriving before the init (it parks the
	// entry until the init or the timeout sweep).
	contrib := ex.route(tp, true)
	ex.emitAck(streamAckInit, root, contrib, tp.RootEmitNS)
}

// emitAck emits one ack-plane frame outside any reliability tree: a tuple
// with no fields whose header carries the root in RootID and the frame's
// value (the init's or ack's XOR, 0 for a fail) in AckVal. SrcTask is this
// task, which for an init is the spout the acker reports back to.
//
//whale:hotpath
func (ex *executor) emitAck(stream string, root, val, emitNS int64) {
	ex.nextID++
	tp := ex.tuples.New()
	*tp = tuple.Tuple{
		Stream:     stream,
		ID:         ex.nextID,
		SrcTask:    ex.ctx.TaskID,
		RootEmitNS: emitNS,
		RootID:     root,
		AckVal:     val,
		Epoch:      ex.epochStamp,
	}
	ex.route(tp, false)
}

// route delivers a constructed tuple to all subscribed destinations and,
// when tracked (the tuple belongs to a reliability tree, which no ack-plane
// frame does even though its header carries a root), returns the XOR of
// the per-destination ack contributions (0 otherwise). Each destination
// task contributes ackContrib(tp.AckVal, task), the same value the
// receiving executor folds into its ack, so the acker's register balances
// only when every destination has processed the tuple. Destinations on confirmed-dead
// workers are fenced out of both the sends and the contribution, so trees
// opened after a failure can complete without the dead worker.
//
//whale:hotpath
func (ex *executor) route(tp *tuple.Tuple, tracked bool) int64 {
	eng := ex.w.eng
	assign := eng.tv().assign
	dests, err := ex.rt.destinations(tp.Stream, tp)
	if err != nil {
		eng.metrics.RouteErrors.Inc()
		return 0
	}
	var contrib int64
	for _, d := range dests {
		eng.metrics.TuplesEmitted.Inc()
		if ex.ops != nil {
			ex.ops.emitted.Inc()
		}
		if d.all {
			if tracked {
				for _, dst := range d.tasks {
					if !eng.workerDead(assign.WorkerOf[dst]) {
						contrib ^= ackContrib(tp.AckVal, dst)
					}
				}
			}
			ex.w.emitAll(ex, tp, d)
			continue
		}
		// Point-to-point edges: local fast path or per-destination job.
		for _, dst := range d.tasks {
			dw := assign.WorkerOf[dst]
			if eng.workerDead(dw) {
				continue
			}
			if tracked {
				contrib ^= ackContrib(tp.AckVal, dst)
			}
			if dw == ex.w.id {
				ex.w.enqueueLocal(dst, tp)
			} else {
				ex.w.enqueueSend(sendJob{kind: jobPointToPoint, tp: tp, dstTask: dst, dstWorker: dw})
			}
		}
	}
	return contrib
}

// isAckStream reports whether the stream belongs to the ack plane.
func isAckStream(stream string) bool {
	switch stream {
	case streamAckInit, streamAck, streamAckFail, streamAckEvent, streamAckTick:
		return true
	}
	return false
}

// runSpout is the spout executor loop.
func (ex *executor) runSpout() {
	defer ex.w.wg.Done()
	ex.spout.Open(&ex.ctx)
	defer ex.spout.Close()
	if ex.w.eng.ckpt != nil {
		defer ex.w.eng.mon.spoutExited(ex)
	}
	maxPending := ex.w.eng.cfg.MaxSpoutPending
	for {
		select {
		case <-ex.w.eng.stopSpouts:
			return
		default:
		}
		ex.drainSpoutEvents(false)
		// Backpressure: with acking on, cap in-flight reliability trees.
		for maxPending > 0 && len(ex.pendingRoots) >= maxPending {
			ex.drainSpoutEvents(true)
			select {
			case <-ex.w.eng.stopSpouts:
				return
			default:
			}
		}
		ex.curRoot = 0  // each spout tuple starts a new latency root
		ex.curTrace = 0 // and gets its own sampling decision
		if !ex.spout.Next(ex.col) {
			ex.awaitOutstanding()
			return // exhausted
		}
	}
}

// awaitOutstanding lets an exhausted reliable spout collect its remaining
// ack/fail callbacks (bounded by the ack timeout plus slack).
func (ex *executor) awaitOutstanding() {
	if len(ex.pendingRoots) == 0 {
		return
	}
	deadline := time.NewTimer(ex.w.eng.cfg.AckTimeout + 2*time.Second)
	defer deadline.Stop()
	for {
		ex.drainSpoutEvents(false)
		if len(ex.pendingRoots) == 0 {
			return
		}
		select {
		case <-ex.inbox.kick:
		case <-ex.w.done:
			return
		case <-deadline.C:
			return
		}
	}
}

// runBolt is the bolt executor loop: take whatever is queued, run it in
// order, and wait for more only when a take comes back empty.
func (ex *executor) runBolt() {
	defer ex.w.wg.Done()
	ex.bolt.Prepare(&ex.ctx)
	defer ex.bolt.Cleanup()
	for {
		if ex.consumeBatch() > 0 {
			continue
		}
		select {
		case <-ex.inbox.kick:
		case <-ex.w.done:
			// Drain remaining input before exiting.
			for ex.consumeBatch() > 0 {
			}
			return
		}
	}
}

// consumeBatch consumes one take in order and reports its size.
func (ex *executor) consumeBatch() int {
	batch := ex.take()
	for i := range batch {
		ex.consume(batch[i].at)
		ex.inbox.done()
	}
	return len(batch)
}

// execute runs the bolt on one input. The clock is read only for a traced
// tuple or a sampled execution (metrics.SampleEvery): the execute-time
// histogram and ProcessingLatency hold the sampled executions alone, while
// the executed and completed counts stay exact.
//
//whale:hotpath
func (ex *executor) execute(at tuple.AddressedTuple) {
	ex.curRoot = at.Data.RootEmitNS
	ex.curRootID = at.Data.RootID
	ex.curTrace = at.Data.TraceID
	ex.curInAck = at.Data.AckVal
	ex.xorAcc = 0
	ex.suppressAck = false
	ex.failCurrent = false
	ex.execs++
	sampled := metrics.Sampled(ex.execs)
	t0 := metrics.Clock(sampled || at.Data.TraceID != 0)
	ex.bolt.Execute(at.Data, ex.col)
	sink := ex.isSink && at.Data.RootEmitNS > 0 && at.Data.Stream != StreamTick
	if !t0.IsZero() {
		dur := metrics.Since(t0)
		ex.w.eng.obs.Tracer.Record(at.Data.TraceID, obs.StageExecute, ex.w.id, t0, dur)
		if sampled {
			ex.ops.execNS.Observe(dur.Nanoseconds())
			if sink {
				ex.w.eng.metrics.ProcessingLatency.Observe(t0.Add(dur).UnixNano() - at.Data.RootEmitNS)
			}
		}
	}
	ex.w.eng.metrics.TuplesExecuted.Inc()
	ex.ops.executed.Inc()
	if sink {
		ex.w.eng.metrics.TuplesCompleted.Inc()
	}
	// Close out the input's reliability bookkeeping.
	if ex.w.eng.cfg.AckEnabled && ex.curRootID != 0 && !isAckStream(at.Data.Stream) {
		switch {
		case ex.failCurrent:
			ex.emitAck(streamAckFail, ex.curRootID, 0, ex.curRoot)
		case ex.suppressAck:
			// The tree stays open until the ack timeout.
		default:
			// Cancel this task's own contribution and add those of the
			// tuples emitted while processing (accumulated in xorAcc).
			ackXor := ex.xorAcc
			if ex.curInAck != 0 {
				ackXor ^= ackContrib(ex.curInAck, ex.ctx.TaskID)
			}
			ex.emitAck(streamAck, ex.curRootID, ackXor, ex.curRoot)
		}
	}
	ex.curRootID = 0
}
