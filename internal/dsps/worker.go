package dsps

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"whale/internal/metrics"
	"whale/internal/multicast"
	"whale/internal/obs"
	"whale/internal/rdma"
	"whale/internal/transport"
	"whale/internal/tuple"
)

// jobKind discriminates transfer-queue jobs.
type jobKind int

const (
	// jobPointToPoint serializes and ships one tuple to one remote task
	// (the instance-oriented mechanism, and point-to-point edges generally).
	jobPointToPoint jobKind = iota
	// jobWorkerBatch serializes a tuple once and ships one WorkerMessage
	// per destination worker (worker-oriented communication, star fan-out).
	jobWorkerBatch
	// jobMulticast serializes once and ships to this worker's children in
	// the group's active multicast tree.
	jobMulticast
	// jobRelay forwards pre-encoded multicast bytes to child workers.
	jobRelay
)

// sendJob is one unit of work on a worker's transfer queue, which carries
// data only: its length is the paper's data queue Q.
type sendJob struct {
	kind          jobKind
	tp            *tuple.Tuple
	dstTask       int32
	dstWorker     int32
	group         int32
	tasksByWorker map[int32][]int32
	dstWorkers    []int32
	raw           []byte
	tracked       bool // carries acked-stream tuples (jobRelay): never shed
}

// groupTrees is one worker's view of a multicast group: an immutable
// snapshot of the versioned trees installed by control messages plus the
// active version, swapped whole. The source reads it once per multicast
// tuple and a relay once per hop, so readers pay one atomic load; writers
// (CtrlTree on the dispatch path, a switch completing at the source, the
// monitor loop activating a member-less tree) copy, modify and CAS.
type groupTrees struct{ atomic.Pointer[treeSnap] }

type treeSnap struct {
	active   int32
	versions map[int32]*multicast.Tree
}

func newGroupTrees(version int32, tr *multicast.Tree) *groupTrees {
	g := &groupTrees{}
	g.Store(&treeSnap{active: version, versions: map[int32]*multicast.Tree{version: tr}})
	return g
}

// activeTree returns the active version and its tree.
func (s *treeSnap) activeTree() (*multicast.Tree, int32, bool) {
	tr, ok := s.versions[s.active]
	return tr, s.active, ok
}

// install stores tr as version and makes it active unless a newer version
// already is. Only the newest version and the two behind it are retained, to
// bound memory; the active version is always the newest installed.
func (g *groupTrees) install(version int32, tr *multicast.Tree) {
	for {
		old := g.Load()
		if version < old.active-2 {
			return // a CtrlTree that arrived after three newer ones
		}
		next := &treeSnap{active: max(old.active, version), versions: map[int32]*multicast.Tree{version: tr}}
		for v, t := range old.versions {
			if v != version && v >= next.active-2 {
				next.versions[v] = t
			}
		}
		if g.CompareAndSwap(old, next) {
			return
		}
	}
}

// inboundData is one raw data message staged for the delivery goroutine.
// Transports hand the handler ownership of the payload, so staging the raw
// bytes is safe without a copy; decoding is deferred to the delivery
// goroutine, which owns a single reusable WorkerMessage scratch instead of
// allocating one per message.
type inboundData struct {
	from int32
	raw  []byte // the full encoded message, also forwarded verbatim by relays
}

// worker hosts a set of executors, one transfer queue with a send thread,
// and the dispatcher fed by the transport.
type worker struct {
	id  int32
	eng *Engine
	tr  transport.Transport
	// execs is the task->executor map behind an atomic pointer: read on
	// every local delivery, written only at Start (single-threaded) and by
	// the monitor loop when a rescale adds executors — clone-on-write, so
	// readers never see a partial map.
	execs    atomic.Pointer[map[int32]*executor]
	transfer chan sendJob
	groups   map[int32]*groupTrees // filled at Start, read-only afterwards
	enc      *tuple.Encoder
	p2pDst   [1]int32 // DstIDs scratch for point-to-point sends (send thread only)
	// rngState seeds retry jitter. Lock-free (splitmix64 over an atomic
	// counter) because retries run concurrently on the send thread and on
	// the per-destination flow-control link goroutines.
	rngState atomic.Uint64
	fc       *flowControl
	// pushBlockedNS accumulates time the send thread spent blocked on a
	// full flow link during the current job. Only touched from the send
	// thread; recordTe subtracts it so the multicast controller's per-replica
	// emit cost reflects serialize+transmit work, not backpressure stalls —
	// otherwise a congested link reads as "emitting got expensive" and the
	// controller wrongly deepens the tree.
	pushBlockedNS int64
	// Sampling counters of the data path's clock reads (metrics.Sampled),
	// one per owning goroutine: encodes on the send thread, delivered on the
	// delivery goroutine.
	encodes, delivered int64
	done               chan struct{}
	wg                 sync.WaitGroup
	sendWG             sync.WaitGroup

	// Per-worker stall accumulators feeding the bottleneck analyzer:
	// sampled executor-queue residency and retry-backoff (replay) time.
	execQueueWaitNS atomic.Int64
	replayNS        atomic.Int64

	// staged holds inbound data messages between the transport handler
	// (dispatch) and the delivery goroutine. Its occupancy is bounded by the
	// credit protocol: no sender can have more than a window of units in
	// flight, so it holds at most the sum of the incoming links' windows.
	staged *mailbox[inboundData]
}

func newWorker(eng *Engine, id int32) *worker {
	w := &worker{
		id:       id,
		eng:      eng,
		transfer: make(chan sendJob, eng.cfg.TransferQueueCap),
		groups:   map[int32]*groupTrees{},
		enc:      tuple.NewEncoder(),
		done:     make(chan struct{}),
		staged:   newMailbox[inboundData](),
	}
	w.execs.Store(&map[int32]*executor{})
	w.rngState.Store(uint64(id)*104729 + 7)
	w.fc = newFlowControl(w)
	return w
}

// execMap returns the worker's live task->executor map. Hot path: one
// atomic load; the map itself is immutable once published.
func (w *worker) execMap() map[int32]*executor { return *w.execs.Load() }

// addExecutor publishes ex via clone-on-write. Only called from Start and
// from the rescale apply (on the monitor loop).
func (w *worker) addExecutor(ex *executor) {
	old := *w.execs.Load()
	next := make(map[int32]*executor, len(old)+1)
	for tid, e := range old {
		next[tid] = e
	}
	next[ex.ctx.TaskID] = ex
	w.execs.Store(&next)
}

// sendData queues one encoded data message on the flow link toward dst;
// delivery is asynchronous from here.
//
// sb is the pooled buffer backing raw (nil when raw is not pooled, e.g.
// relayed inbound bytes); sendData consumes exactly one reference to it —
// downstream in the flow link once the item leaves the queue.
//
//whale:owns sb
func (w *worker) sendData(dst int32, raw []byte, sb *sendBuf, cost, tuples int64, tracked bool) {
	w.fc.push(dst, flowItem{raw: raw, buf: sb, cost: cost, tuples: tuples, tracked: tracked})
}

// grantData credits n delivery units back to the upstream sender src. Local
// deliveries (src == tuple.LocalSrc) and unknown worker ids owe nothing.
//
//whale:grants
func (w *worker) grantData(src int32, n int64) {
	if n <= 0 || src < 0 || int(src) >= len(w.eng.workers) {
		return
	}
	w.fc.grant(src, n)
}

// enqueueLocal delivers a tuple to a local executor (Storm's local fast
// path — no serialization), waiting for room in a full inbox.
func (w *worker) enqueueLocal(dst int32, tp *tuple.Tuple) {
	ex, ok := w.execMap()[dst]
	if !ok {
		w.eng.metrics.RouteErrors.Inc()
		return
	}
	if ex.untaken.Load() >= ex.queueCap && !ex.awaitRoom() {
		return
	}
	ex.put(tuple.AddressedTuple{TaskID: dst, Src: tuple.LocalSrc, Data: tp})
}

// enqueueRemote puts a remotely received tuple in a local executor's inbox
// without blocking, so one slow executor starves only its own senders. It
// grants nothing itself: it reports parked when the unit is owed (the
// executor grants it on take); otherwise — there was room, or there is no
// such executor — the caller grants the unit with the rest of the message's.
//
// Granting on admission — not on executor drain — matters on cyclic worker
// graphs: an executor can block mid-Execute on its own credit-starved
// downstream emit, and drain-time grants then let two mutually-loaded
// workers starve each other into timeout-paced stalls.
func (w *worker) enqueueRemote(from int32, dst int32, tp *tuple.Tuple) (parked bool) {
	ex, ok := w.execMap()[dst]
	if !ok {
		w.eng.metrics.RouteErrors.Inc()
		return false
	}
	return ex.put(tuple.AddressedTuple{TaskID: dst, Src: from, Data: tp})
}

// enqueueSend pushes a job onto the transfer queue, blocking when the queue
// is at capacity Q (the blocking the paper's controller watches for).
func (w *worker) enqueueSend(j sendJob) {
	select {
	case w.transfer <- j:
	default:
		select {
		case w.transfer <- j:
		case <-w.done:
		}
	}
}

// sendControl encodes one control frame and sends it to each listed worker
// with the retrying send, never through the transfer queue: a control
// frame does not wait behind data, and the caller waits at most for the
// peers' transport handlers, which never wait on anything.
func (w *worker) sendControl(cm *tuple.ControlMessage, to ...int32) {
	raw := tuple.AppendWorkerMessage(nil, &tuple.WorkerMessage{
		Kind:    tuple.KindControl,
		Payload: tuple.AppendControlMessage(nil, cm),
	})
	for _, dst := range to {
		w.send(dst, raw)
	}
}

// emitAll implements the one-to-many edge per the engine's configuration.
func (w *worker) emitAll(ex *executor, tp *tuple.Tuple, d destination) {
	tv := w.eng.tv()
	// Local destinations always take the fast path.
	for _, dst := range d.tasks {
		if tv.assign.WorkerOf[dst] == w.id {
			w.enqueueLocal(dst, tp)
		}
	}
	switch {
	case w.eng.cfg.Comm == InstanceOriented:
		for _, dst := range d.tasks {
			if dw := tv.assign.WorkerOf[dst]; dw != w.id {
				w.enqueueSend(sendJob{kind: jobPointToPoint, tp: tp, dstTask: dst, dstWorker: dw})
			}
		}
	case w.eng.cfg.Multicast == MulticastStar:
		byWorker := tv.remoteBy[d.dstOp][w.id]
		if len(byWorker) > 0 {
			w.enqueueSend(sendJob{kind: jobWorkerBatch, tp: tp, tasksByWorker: byWorker})
		}
	default: // tree multicast
		gid, ok := w.eng.groupOf(ex.ctx.OperatorID, tp.Stream, w.id)
		if !ok {
			// No remote members: everything was delivered locally.
			return
		}
		if mgr := w.eng.managers[gid]; mgr != nil && mgr.adaptive {
			mgr.sm.Record(1)
		}
		w.enqueueSend(sendJob{kind: jobMulticast, tp: tp, group: gid})
	}
}

// sendLoop is the worker's send thread: it drains the transfer queue,
// paying serialization and transmission costs per job.
func (w *worker) sendLoop() {
	defer w.sendWG.Done()
	for {
		select {
		case j := <-w.transfer:
			w.process(j)
			continue
		default:
		}
		select {
		case j := <-w.transfer:
			w.process(j)
		case <-w.done:
			for {
				select {
				case j := <-w.transfer:
					w.process(j)
				default:
					return
				}
			}
		}
	}
}

// encodeTuple serializes a tuple, accounting the cost: the count exactly,
// the time for a traced tuple (its span) and for a sampled encode
// (SampleEvery times into SerializationNS).
//
//whale:hotpath
func (w *worker) encodeTuple(tp *tuple.Tuple) ([]byte, error) {
	w.encodes++
	sampled := metrics.Sampled(w.encodes)
	t0 := metrics.Clock(sampled || tp.TraceID != 0)
	payload, err := w.enc.EncodeTuple(tp)
	if !t0.IsZero() {
		d := metrics.Since(t0)
		if sampled {
			w.eng.metrics.SerializationNS.Add(metrics.SampleEvery * d.Nanoseconds())
		}
		w.eng.obs.Tracer.Record(tp.TraceID, obs.StageSerialize, w.id, t0, d)
	}
	w.eng.metrics.Serializations.Inc()
	return payload, err
}

// tupleTracked reports whether tp must never be shed by a full flow link:
// tuples anchored in a reliability tree, and the ack-plane frames, whose
// header names their tree's root too — shedding an ack would strand its
// tree until the ack timeout even though the data arrived.
func tupleTracked(tp *tuple.Tuple) bool {
	// Barriers are never shed: losing one stalls its epoch's alignment
	// until the coordinator times the epoch out.
	return tp.RootID != 0 || tp.Stream == StreamBarrier
}

// process runs one transfer-queue job. The data arms read the clock only
// for a traced tuple (its spans) or when an adaptive multicast manager
// listens for the per-replica emit cost (recordTe), which stays exact.
//
//whale:hotpath
func (w *worker) process(j sendJob) {
	m := w.eng.metrics
	switch j.kind {
	case jobPointToPoint:
		mgr := w.eng.managerForTask(j.tp.SrcTask)
		traced := j.tp.TraceID != 0
		w.pushBlockedNS = 0
		t0 := metrics.Clock(mgr != nil)
		payload, err := w.encodeTuple(j.tp)
		if err != nil {
			m.RouteErrors.Inc()
			return
		}
		w.p2pDst[0] = j.dstTask
		msg := tuple.WorkerMessage{Kind: tuple.KindInstanceMessage, DstIDs: w.p2pDst[:], Payload: payload}
		t1 := metrics.Clock(traced)
		sb := acquireSendBuf()
		sb.b = tuple.AppendWorkerMessage(sb.b[:0], &msg)
		w.sendData(j.dstWorker, sb.b, sb, 1, 1, tupleTracked(j.tp))
		if traced {
			w.eng.obs.Tracer.Record(j.tp.TraceID, obs.StageRDMASlice, w.id, t1, metrics.Since(t1))
		}
		w.recordTe(mgr, t0)

	case jobWorkerBatch:
		payload, err := w.encodeTuple(j.tp)
		if err != nil {
			m.RouteErrors.Inc()
			return
		}
		workers := make([]int32, 0, len(j.tasksByWorker))
		for dw := range j.tasksByWorker {
			workers = append(workers, dw)
		}
		sort.Slice(workers, func(i, k int) bool { return workers[i] < workers[k] })
		mgr := w.eng.managerForTask(j.tp.SrcTask)
		traced := j.tp.TraceID != 0
		for _, dw := range workers {
			w.pushBlockedNS = 0
			t0 := metrics.Clock(traced || mgr != nil)
			msg := tuple.WorkerMessage{Kind: tuple.KindWorkerMessage, DstIDs: j.tasksByWorker[dw], Payload: payload}
			n := int64(len(j.tasksByWorker[dw]))
			cost := n
			if cost < 1 {
				cost = 1
			}
			sb := acquireSendBuf()
			sb.b = tuple.AppendWorkerMessage(sb.b[:0], &msg)
			w.sendData(dw, sb.b, sb, cost, n, tupleTracked(j.tp))
			if traced {
				w.eng.obs.Tracer.Record(j.tp.TraceID, obs.StageRDMASlice, w.id, t0, metrics.Since(t0))
			}
			w.recordTe(mgr, t0)
		}

	case jobMulticast:
		gs, ok := w.groups[j.group]
		if !ok {
			m.RouteErrors.Inc()
			return
		}
		tr, version, ok := gs.Load().activeTree()
		if !ok {
			m.RouteErrors.Inc()
			return
		}
		children := tr.Children(w.id)
		if len(children) == 0 {
			return
		}
		payload, err := w.encodeTuple(j.tp)
		if err != nil {
			m.RouteErrors.Inc()
			return
		}
		msg := tuple.WorkerMessage{
			Kind: tuple.KindMulticastMessage, Payload: payload,
			Group: j.group, TreeVersion: version, SrcWorker: w.id,
		}
		// Serialize once, fan out one pooled-buffer reference per child.
		sb := acquireSendBuf()
		sb.b = tuple.AppendWorkerMessage(sb.b[:0], &msg)
		sb.retain(int32(len(children) - 1))
		mgr := w.eng.managerForTask(j.tp.SrcTask)
		traced := j.tp.TraceID != 0
		for _, child := range children {
			w.pushBlockedNS = 0
			t0 := metrics.Clock(traced || mgr != nil)
			w.sendData(child, sb.b, sb, w.multicastCost(j.group, child), int64(len(w.eng.groupLocalTasks(j.group, child))), tupleTracked(j.tp))
			if traced {
				// Source hop: depth 0, fan-out = this worker's child count.
				w.eng.obs.Tracer.RecordHop(j.tp.TraceID, obs.StageRDMASlice, w.id,
					child, version, 0, int32(len(children)), t0, metrics.Since(t0))
			}
			w.recordTe(mgr, t0)
		}

	case jobRelay:
		// Relayed bytes are inbound-handler-owned (and aliased by the decoded
		// tuples already delivered locally), never pooled: no sendBuf.
		for _, dw := range j.dstWorkers {
			w.sendData(dw, j.raw, nil, w.multicastCost(j.group, dw), int64(len(w.eng.groupLocalTasks(j.group, dw))), j.tracked)
		}
	}
}

// multicastCost is the delivery units one multicast message costs toward
// child: one relay-acceptance unit (granted when the child finishes
// relay routing — the hop-by-hop backpressure signal) plus one unit per
// subscribed task local to the child. Sender and receiver must agree on
// this rule exactly; it deliberately does not depend on the tree version.
func (w *worker) multicastCost(gid, child int32) int64 {
	return 1 + int64(len(w.eng.groupLocalTasks(gid, child)))
}

// send delivers raw to worker dst from the send thread, with bounded
// exponential backoff plus jitter on transient transport errors (dropped
// links, partitions, full RDMA send queues). Sends to confirmed-dead
// workers are suppressed outright. It reports whether the payload was
// handed to the transport; permanent errors and exhausted retries count in
// dsps.send_errors.
func (w *worker) send(dst int32, raw []byte) bool {
	ok, _ := w.sendMeasured(dst, raw)
	return ok
}

// sendTraced is send plus sampled stall attribution: when raw carries a
// traced tuple, time lost to retry backoff is recorded as a replay stall
// and transport blocking on a full ring (delta of the channel's BlockedNS
// across the call — approximate under concurrent links, exact enough for
// a sampled diagnostic) as a ring-wait stall.
func (w *worker) sendTraced(dst int32, raw []byte, traceID int64) bool {
	if traceID == 0 {
		return w.send(dst, raw)
	}
	t0 := time.Now()
	var ringBefore int64
	cs, hasCS := w.tr.(interface{ ChannelStats() rdma.StatsSnapshot })
	if hasCS {
		ringBefore = cs.ChannelStats().BlockedNS
	}
	ok, backoff := w.sendMeasured(dst, raw)
	if backoff > 0 {
		w.eng.obs.Tracer.RecordHop(traceID, obs.StallReplay, w.id, dst, 0, 0, 0, t0, backoff)
	}
	if hasCS {
		if d := cs.ChannelStats().BlockedNS - ringBefore; d > 0 {
			w.eng.obs.Tracer.RecordHop(traceID, obs.StallRingWait, w.id, dst, 0, 0, 0, t0, time.Duration(d))
		}
	}
	return ok
}

// sendMeasured is the retrying send; it additionally returns the time
// spent waiting out retry backoff (zero on the first-attempt fast path),
// which feeds the replay stall class and dsps.replay_ns.
func (w *worker) sendMeasured(dst int32, raw []byte) (bool, time.Duration) {
	if w.eng.workerDead(dst) {
		w.eng.metrics.SendsSuppressed.Inc()
		return false, 0
	}
	err := w.tr.Send(dst, raw)
	if err == nil {
		return true, 0
	}
	var waited time.Duration
	defer func() {
		if waited > 0 {
			w.eng.metrics.ReplayNS.Add(waited.Nanoseconds())
			w.replayNS.Add(waited.Nanoseconds())
		}
	}()
	backoff := w.eng.cfg.SendRetryBase
	for attempt := 0; attempt < w.eng.cfg.SendRetries && transport.IsTransient(err); attempt++ {
		// Jitter in [backoff/2, 3*backoff/2) decorrelates retry storms
		// across workers and across this worker's concurrent senders.
		d := backoff/2 + time.Duration(w.jitter(int64(backoff)))
		tw := time.Now()
		select {
		case <-time.After(d):
			waited += time.Since(tw)
		case <-w.done:
			w.eng.metrics.SendErrors.Inc()
			return false, waited + time.Since(tw)
		case <-w.eng.stopping:
			// Engine shutdown bounds the total backoff: without this, Stop
			// could wait out the full exponential schedule per queued send.
			w.eng.metrics.SendErrors.Inc()
			return false, waited + time.Since(tw)
		}
		if w.eng.workerDead(dst) {
			w.eng.metrics.SendsSuppressed.Inc()
			return false, waited
		}
		w.eng.metrics.SendRetries.Inc()
		if err = w.tr.Send(dst, raw); err == nil {
			return true, waited
		}
		backoff *= 2
	}
	w.eng.metrics.SendErrors.Inc()
	return false, waited
}

// recordTe feeds the per-replica processing time since t0, less the time
// blocked on a full flow link, to the source task's group monitor mgr if
// one exists (only multicast sources adapt; t0 is read whenever one does).
func (w *worker) recordTe(mgr *mcManager, t0 time.Time) {
	if mgr == nil {
		return
	}
	mgr.qm.RecordEmit(max(0, metrics.Since(t0).Nanoseconds()-w.pushBlockedNS))
}

// dispatch is the transport inbound handler: Whale's dispatcher component.
//
// Data messages are staged for a dedicated delivery goroutine while control
// messages are handled inline — crucially including CtrlCredit grants. With
// a single serial inbound handler, a grant queued behind data wedges the
// whole worker: the delivery path can block on a full transfer queue whose
// send thread is itself blocked on a credit-starved link, and the grant
// that would reopen that link then sits unprocessed behind the data in
// front of it — a distributed cycle broken only by the credit timeout. So
// the handler only stages, grants and posts; it never sends, and a frame
// that needs an answer is answered by the monitor loop.
func (w *worker) dispatch(from transport.WorkerID, payload []byte) {
	// Any inbound message is liveness evidence; explicit heartbeats only
	// matter on otherwise-idle links.
	if fd := w.eng.detector; fd != nil && w.id == fd.monitor {
		fd.observe(from)
	}
	// Peek the kind byte instead of decoding: control stays inline, data is
	// staged raw and decoded by the delivery goroutine's scratch.
	if tuple.MessageKind(payload) == tuple.KindControl {
		msg, _, err := tuple.DecodeWorkerMessage(payload)
		if err != nil {
			w.eng.metrics.DecodeErrors.Inc()
			return
		}
		cm, _, err := tuple.DecodeControlMessage(msg.Payload)
		if err != nil {
			w.eng.metrics.DecodeErrors.Inc()
			return
		}
		w.handleControl(from, cm)
		return
	}
	w.staged.put(inboundData{from: int32(from), raw: payload})
}

// deliverLoop delivers staged inbound data in arrival order, a batch at a
// time. It may block on a full transfer queue — that blocking is the
// backpressure signal (grants are withheld), and it never delays control-
// message processing.
func (w *worker) deliverLoop() {
	defer w.wg.Done()
	// Single-goroutine decode scratch: DstIDs capacity is reused across
	// messages, and the decoded tuples come out of this loop's own slab, so
	// steady-state delivery does not allocate per message.
	var scratch tuple.WorkerMessage
	var slab tuple.Slab
	for {
		for _, it := range w.staged.take() {
			if _, err := tuple.DecodeWorkerMessageInto(&scratch, it.raw); err != nil {
				w.eng.metrics.DecodeErrors.Inc()
			} else {
				w.deliverData(transport.WorkerID(it.from), &scratch, it.raw, &slab)
			}
			w.staged.done()
		}
		select {
		case <-w.staged.kick:
		case <-w.done:
			return
		}
	}
}

// deliverData routes one decoded inbound message to local executors (and,
// for multicast, onto the relay path). raw is the full encoded message the
// handler received — owned by us per the transport contract — forwarded
// verbatim by relays. The decoded tuple is a view over raw, shared by every
// local destination, and comes out of the caller's slab. Span clocks are
// read only for a traced payload (peeked before decode);
// multicast.latency_ns reads it only for a sampled message
// (metrics.SampleEvery on this goroutine's delivered count).
//
//whale:hotpath
func (w *worker) deliverData(from transport.WorkerID, msg *tuple.WorkerMessage, raw []byte, slab *tuple.Slab) {
	traced := tuple.PeekTraceID(msg.Payload) != 0
	w.delivered++
	sampled := metrics.Sampled(w.delivered)
	var t0 time.Time
	switch msg.Kind {
	case tuple.KindInstanceMessage, tuple.KindWorkerMessage:
		t0 = metrics.Clock(traced)
		src := int32(from)
		// The sender charged max(1, len(DstIDs)) units; every unit must be
		// granted back — by the executor's take for a parked tuple, in this
		// message's one grant for the rest: admitted tuples, and the ones
		// that can never be delivered (decode error, missing executor).
		owed := int64(len(msg.DstIDs)) //whale:charged multi
		if owed < 1 {
			owed = 1
		}
		tp, _, err := slab.Decode(msg.Payload)
		if err != nil {
			w.eng.metrics.DecodeErrors.Inc()
			w.grantData(src, owed)
			return
		}
		if sampled && msg.Kind == tuple.KindWorkerMessage && tp.RootEmitNS > 0 {
			w.eng.metrics.MulticastLatency.Observe(metrics.Clock(true).UnixNano() - tp.RootEmitNS)
		}
		for _, dst := range msg.DstIDs {
			if w.enqueueRemote(src, dst, tp) {
				owed--
			}
		}
		w.grantData(src, owed)
		if traced {
			w.eng.obs.Tracer.RecordHop(tp.TraceID, obs.StageDispatch, w.id,
				src, 0, 0, 0, t0, metrics.Since(t0))
		}

	case tuple.KindMulticastMessage:
		src := int32(from)
		locals := w.eng.groupLocalTasks(msg.Group, w.id)
		// The sender charged multicastCost: the relay-acceptance unit plus
		// one per local task. The executor's take grants a parked tuple's
		// unit; the rest go back in this message's one grant.
		owed := 1 + int64(len(locals)) //whale:charged multi
		gs, ok := w.groups[msg.Group]
		if !ok {
			w.eng.metrics.DecodeErrors.Inc()
			w.grantData(src, owed)
			return
		}
		t0 = metrics.Clock(traced)
		tp, _, err := slab.Decode(msg.Payload)
		if err != nil {
			w.eng.metrics.DecodeErrors.Inc()
			w.grantData(src, owed)
			return
		}
		relayed := false
		var hopDepth, hopFanout int32
		if tr, ok := gs.Load().versions[msg.TreeVersion]; ok {
			children := tr.Children(w.id)
			if len(children) > 0 {
				w.enqueueSend(sendJob{kind: jobRelay, raw: raw, dstWorkers: children,
					group: msg.Group, tracked: tupleTracked(tp)})
				relayed = true
			}
			if traced {
				// Hop metadata is only derived for sampled tuples: DepthOf
				// walks parent pointers, which untraced traffic should not pay.
				hopDepth = int32(tr.DepthOf(w.id))
				hopFanout = int32(len(children))
			}
		} else {
			w.eng.metrics.RouteErrors.Inc()
		}
		// The relay-acceptance unit is granted below, after the message has
		// a seat on the transfer queue (enqueueSend blocks when it is full),
		// so a congested relay withholds the grant and the parent stalls —
		// backpressure propagates up the tree hop by hop.
		if relayed && traced {
			// The hop covers the decode and the relay enqueue.
			w.eng.obs.Tracer.RecordHop(tp.TraceID, obs.StageTreeHop, w.id,
				src, msg.TreeVersion, hopDepth, hopFanout, t0, metrics.Since(t0))
		}
		if sampled && tp.RootEmitNS > 0 {
			w.eng.metrics.MulticastLatency.Observe(metrics.Clock(true).UnixNano() - tp.RootEmitNS)
		}
		t1 := metrics.Clock(traced)
		for _, dst := range locals {
			if w.enqueueRemote(src, dst, tp) {
				owed--
			}
		}
		w.grantData(src, owed)
		if traced {
			w.eng.obs.Tracer.RecordHop(tp.TraceID, obs.StageDispatch, w.id,
				src, msg.TreeVersion, hopDepth, 0, t1, metrics.Since(t1))
		}

	default: // control never reaches here: dispatch handles it inline
		w.eng.metrics.DecodeErrors.Inc()
	}
}

// handleControl processes the dynamic-switching control plane (§3.4).
func (w *worker) handleControl(from transport.WorkerID, cm *tuple.ControlMessage) {
	switch cm.Type {
	case tuple.CtrlTree:
		gs, ok := w.groups[cm.Group]
		if !ok {
			w.eng.metrics.DecodeErrors.Inc()
			return
		}
		tr, err := multicast.FromFlat(cm.Nodes, cm.Parents)
		if err != nil {
			w.eng.metrics.DecodeErrors.Inc()
			return
		}
		gs.install(cm.Version, tr)
		// The loop acks to the source worker, after the install.
		w.eng.mon.post(treeInstalled{group: cm.Group, version: cm.Version, member: w.id, source: int32(from)})

	case tuple.CtrlCredit:
		w.fc.onGrant(int32(from), cm.Credits)

	// The four frames below are events for the monitor loop: posting
	// never blocks this dispatch goroutine, whatever the loop is doing.
	case tuple.CtrlAck:
		if w.eng.managers[cm.Group] != nil {
			w.eng.mon.post(treeAck{group: cm.Group, version: cm.Version, node: cm.Node})
		}

	case tuple.CtrlSnapAck:
		if w.eng.ckpt != nil {
			w.eng.mon.post(snapAck{dir: cm.Direction, task: cm.Node, epoch: cm.Epoch})
		}

	case tuple.CtrlJoin:
		if fd := w.eng.detector; fd != nil && w.id == fd.monitor {
			w.eng.mon.post(ctrlJoin{node: cm.Node, attempt: cm.Version})
		}

	case tuple.CtrlWelcome:
		w.eng.mon.post(ctrlWelcome{node: cm.Node})

	case tuple.CtrlHeartbeat:
		// Liveness was recorded in dispatch; the beacon carries no payload.

	default:
		// CtrlStatus and CtrlReconnect are informational in this
		// implementation (CtrlTree carries the full structure).
	}
}

// jitter returns a pseudo-random value in [0, n): one splitmix64 step over
// an atomic counter, so concurrent callers (send thread, flow-link
// goroutines) never contend on a lock or race on shared rng state.
func (w *worker) jitter(n int64) int64 {
	x := w.rngState.Add(0x9E3779B97F4A7C15)
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	x ^= x >> 31
	return int64(x % uint64(n))
}
