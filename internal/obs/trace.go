package obs

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"whale/internal/metrics"
)

// Stage names one hop of a tuple's path through the system. A full trace
// for a multicast tuple crosses all five pipeline stages: the source
// worker's send thread serializes it once and posts one RDMA slice per
// child, each relay worker forwards it down the tree and dispatches it to
// local executors, and every subscribed executor runs it. Beyond the
// pipeline stages, a traced tuple also accumulates one span per stall
// class it hits (see the Stall* constants): time the tuple spent waiting
// rather than being worked on.
type Stage string

const (
	// StageSerialize is the send thread's one-per-tuple encode (t_s).
	StageSerialize Stage = "serialize"
	// StageTreeHop is a relay worker forwarding the tuple to its children
	// in the active multicast tree.
	StageTreeHop Stage = "tree_hop"
	// StageRDMASlice is one transport send: the tuple entering a channel's
	// pending batch (MMS slicing) toward one destination worker.
	StageRDMASlice Stage = "rdma_slice"
	// StageDispatch is the receiving worker's dispatcher decoding the
	// message and enqueueing it to local executors.
	StageDispatch Stage = "dispatch"
	// StageExecute is one executor running the tuple through operator code.
	StageExecute Stage = "execute"
)

// Stall classes. Each names a place a traced tuple waited without being
// processed; together with the pipeline stages they partition a trace's
// wall time into work and attributable waiting.
const (
	// StallCreditWait is time a flow-link sender goroutine spent blocked
	// on the credit window before transmitting the tuple's message.
	StallCreditWait Stage = "credit_wait"
	// StallSendQueueWait is residency in a per-destination sender FIFO:
	// from push onto the flow link's queue until the sender goroutine
	// popped it.
	StallSendQueueWait Stage = "send_queue_wait"
	// StallRingWait is time the transport spent blocked on a full RDMA
	// ring memory region while flushing the batch carrying the tuple.
	StallRingWait Stage = "ring_wait"
	// StallExecQueueWait is time the tuple sat in an executor's inbox:
	// from its put until the executor took it.
	StallExecQueueWait Stage = "exec_queue_wait"
	// StallReplay is time lost to transient send failures: the backoff
	// and retransmission delay before the tuple's message went through.
	StallReplay Stage = "replay"
)

// Stages lists the pipeline stages in path order.
var Stages = []Stage{StageSerialize, StageRDMASlice, StageDispatch, StageTreeHop, StageExecute}

// StallStages lists the stall classes a traced tuple can accumulate.
var StallStages = []Stage{StallCreditWait, StallSendQueueWait, StallRingWait, StallExecQueueWait, StallReplay}

// IsStall reports whether st names a stall class rather than a pipeline
// stage.
func IsStall(st Stage) bool {
	switch st {
	case StallCreditWait, StallSendQueueWait, StallRingWait, StallExecQueueWait, StallReplay:
		return true
	}
	return false
}

// SpanEvent is one recorded stage or stall occurrence within a trace. The
// hop-metadata fields are populated only where they mean something: Peer
// is the other worker on the link (the forwarding parent for a tree hop,
// the destination for a send-side stall), Version the multicast tree
// version that routed the hop, Depth the hop's distance from the tree
// source, and Fanout the number of children the tuple was forwarded to.
type SpanEvent struct {
	Stage   Stage `json:"stage"`
	Worker  int32 `json:"worker"`
	Peer    int32 `json:"peer,omitempty"`
	Version int32 `json:"version,omitempty"`
	Depth   int32 `json:"depth,omitempty"`
	Fanout  int32 `json:"fanout,omitempty"`
	StartNS int64 `json:"start_ns"`
	DurNS   int64 `json:"dur_ns"`
}

// TraceSpans is the full recorded timeline of one sampled tuple.
type TraceSpans struct {
	TraceID int64       `json:"trace_id"`
	Events  []SpanEvent `json:"events"`
}

// spanPool recycles evicted trace timelines so steady-state tracing stops
// allocating once event-slice capacities have grown to the workload's
// span count (the bounded-alloc half of the sampling/overhead contract).
var spanPool = sync.Pool{New: func() any { return &TraceSpans{} }}

// acquireSpans returns a pooled timeline reset for trace id. The timeline
// is owned by the caller until it is parked in the tracer's retention map;
// eviction hands it back to recycleSpans.
//
//whale:acquires
func acquireSpans(id int64) *TraceSpans {
	sp := spanPool.Get().(*TraceSpans)
	sp.TraceID = id
	sp.Events = sp.Events[:0]
	return sp
}

// recycleSpans returns an evicted timeline to the pool. sp must not be
// touched afterwards: the next acquireSpans call reuses its storage.
//
//whale:owns sp
func recycleSpans(sp *TraceSpans) { spanPool.Put(sp) }

// Tracer implements sampled tuple-path tracing: every Nth root tuple
// leaving a spout is assigned a trace ID that rides the tuple's wire
// format; instrumented stages feed per-stage latency histograms (always)
// and a bounded set of full span timelines (most recent traces kept).
// All methods are safe for concurrent use; with sampling disabled every
// call is a cheap no-op, and for an untraced tuple (trace ID 0) Record
// and RecordHop return without locking or allocating.
type Tracer struct {
	sampleEvery int64
	keep        int
	reg         *Registry

	seen   atomic.Int64
	nextID atomic.Int64

	mu    sync.Mutex //whale:lockrank 50
	spans map[int64]*TraceSpans
	order []int64 // trace ids in admission order, oldest first
	hists map[Stage]*metrics.Histogram
}

func newTracer(reg *Registry, sampleEvery, keep int) *Tracer {
	if keep <= 0 {
		keep = traceKeep
	}
	t := &Tracer{
		sampleEvery: int64(sampleEvery),
		keep:        keep,
		reg:         reg,
		spans:       map[int64]*TraceSpans{},
		hists:       map[Stage]*metrics.Histogram{},
	}
	for _, st := range Stages {
		t.hists[st] = reg.Histogram("trace.stage." + string(st) + "_ns")
	}
	for _, st := range StallStages {
		t.hists[st] = reg.Histogram("trace.stall." + string(st) + "_ns")
	}
	return t
}

// Enabled reports whether sampling is configured.
func (t *Tracer) Enabled() bool { return t != nil && t.sampleEvery > 0 }

// Sample decides whether the next root tuple is traced, returning its
// nonzero trace ID if so and 0 otherwise.
func (t *Tracer) Sample() int64 {
	if !t.Enabled() {
		return 0
	}
	if t.seen.Add(1)%t.sampleEvery != 0 {
		return 0
	}
	id := t.nextID.Add(1)
	sp := acquireSpans(id)
	t.mu.Lock()
	t.spans[id] = sp //whale:transfers sp
	t.order = append(t.order, id)
	if len(t.order) > t.keep {
		evict := t.order[0]
		t.order = t.order[1:]
		if old, ok := t.spans[evict]; ok {
			delete(t.spans, evict)
			recycleSpans(old)
		}
	}
	t.mu.Unlock()
	return id
}

// Record notes one stage or stall occurrence for the traced tuple.
// traceID 0 (an untraced tuple) is a no-op, so call sites can record
// unconditionally.
//
//whale:hotpath
func (t *Tracer) Record(traceID int64, stage Stage, worker int32, start time.Time, dur time.Duration) {
	if t == nil || traceID == 0 {
		return
	}
	t.record(traceID, SpanEvent{
		Stage:   stage,
		Worker:  worker,
		StartNS: start.UnixNano(),
		DurNS:   dur.Nanoseconds(),
	})
}

// RecordHop notes one multicast-tree hop (or hop-shaped stall) with its
// link metadata: peer worker, routing tree version, hop depth from the
// tree source, and downstream fan-out. traceID 0 is a no-op.
//
//whale:hotpath
func (t *Tracer) RecordHop(traceID int64, stage Stage, worker, peer, version, depth, fanout int32, start time.Time, dur time.Duration) {
	if t == nil || traceID == 0 {
		return
	}
	t.record(traceID, SpanEvent{
		Stage:   stage,
		Worker:  worker,
		Peer:    peer,
		Version: version,
		Depth:   depth,
		Fanout:  fanout,
		StartNS: start.UnixNano(),
		DurNS:   dur.Nanoseconds(),
	})
}

func (t *Tracer) record(traceID int64, ev SpanEvent) {
	if h, ok := t.hists[ev.Stage]; ok {
		h.Observe(ev.DurNS)
	}
	t.mu.Lock()
	if sp, ok := t.spans[traceID]; ok {
		sp.Events = append(sp.Events, ev)
	}
	t.mu.Unlock()
}

// Spans returns a copy of every retained trace timeline, oldest first,
// with each timeline's events sorted by start time. The copies are made
// under the tracer lock so concurrent Record calls never tear an event.
func (t *Tracer) Spans() []TraceSpans {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := make([]TraceSpans, 0, len(t.order))
	for _, id := range t.order {
		sp := t.spans[id]
		cp := TraceSpans{TraceID: sp.TraceID, Events: append([]SpanEvent(nil), sp.Events...)}
		out = append(out, cp)
	}
	t.mu.Unlock()
	for i := range out {
		evs := out[i].Events
		sort.SliceStable(evs, func(a, b int) bool { return evs[a].StartNS < evs[b].StartNS })
	}
	return out
}

// StageHist returns the tracer's histogram for one stage or stall class
// (nil when the tracer is nil or the stage unknown). The bottleneck
// analyzer reads these to fold per-stage latency into its profile.
func (t *Tracer) StageHist(st Stage) *metrics.Histogram {
	if t == nil {
		return nil
	}
	return t.hists[st]
}
