package dsps

import (
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"whale/internal/transport"
	"whale/internal/tuple"
)

// reliableSpout emits n tuples reliably and records callbacks.
type reliableSpout struct {
	n    int
	i    int
	mu   sync.Mutex
	acks map[int64]bool
	fail map[int64]bool
}

func (s *reliableSpout) Open(*TaskContext) {
	s.acks = map[int64]bool{}
	s.fail = map[int64]bool{}
}

func (s *reliableSpout) Next(c *Collector) bool {
	if s.i >= s.n {
		return false
	}
	c.EmitReliable(int64(s.i), int64(s.i), "payload")
	s.i++
	return true
}

func (s *reliableSpout) Close() {}

func (s *reliableSpout) Ack(msgID int64) {
	s.mu.Lock()
	s.acks[msgID] = true
	s.mu.Unlock()
}

func (s *reliableSpout) Fail(msgID int64) {
	s.mu.Lock()
	s.fail[msgID] = true
	s.mu.Unlock()
}

func (s *reliableSpout) counts() (acked, failed int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.acks), len(s.fail)
}

// ackingBolt forwards, fails, or drops per tuple seq.
type ackingBolt struct {
	failEvery int // Fail() every k-th tuple (by first field)
	dropEvery int // NoAck() every k-th tuple
	forward   bool
}

func (b *ackingBolt) Prepare(*TaskContext) {}
func (b *ackingBolt) Execute(tp *tuple.Tuple, c *Collector) {
	seq := tp.Int(0)
	if b.failEvery > 0 && seq%int64(b.failEvery) == 0 {
		c.Fail()
		return
	}
	if b.dropEvery > 0 && seq%int64(b.dropEvery) == 0 {
		c.NoAck()
		return
	}
	if b.forward {
		c.Emit(tp.Fields()...)
	}
}
func (b *ackingBolt) Cleanup() {}

// sinkAckBolt just processes (auto-ack).
type sinkAckBolt struct{}

func (sinkAckBolt) Prepare(*TaskContext)             {}
func (sinkAckBolt) Execute(*tuple.Tuple, *Collector) {}
func (sinkAckBolt) Cleanup()                         {}

func startAckTopology(t *testing.T, spout *reliableSpout, mid *ackingBolt, cfg Config) *Engine {
	t.Helper()
	b := NewTopologyBuilder()
	b.Spout("src", func() Spout { return spout }, 1)
	b.Bolt("mid", func() Bolt { return mid }, 3).Shuffle("src")
	b.Bolt("sink", func() Bolt { return sinkAckBolt{} }, 2).FieldsStream("mid", "mid", 0)
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 3
	if cfg.Network == nil {
		cfg.Network = transport.NewInprocNetwork(0)
	}
	cfg.AckEnabled = true
	eng, err := Start(topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func TestAckingAllComplete(t *testing.T) {
	const n = 300
	spout := &reliableSpout{n: n}
	eng := startAckTopology(t, spout, &ackingBolt{forward: true}, Config{Comm: WorkerOriented})
	eng.WaitSpouts()
	eng.Stop()
	acked, failed := spout.counts()
	if acked != n || failed != 0 {
		t.Fatalf("acked=%d failed=%d, want %d/0", acked, failed, n)
	}
	m := eng.Metrics()
	if m.TuplesAcked.Value() != n || m.TuplesFailed.Value() != 0 {
		t.Fatalf("metrics acked=%d failed=%d", m.TuplesAcked.Value(), m.TuplesFailed.Value())
	}
	if m.CompleteLatency.Count() != n || m.CompleteLatency.Mean() <= 0 {
		t.Fatalf("complete latency %v", m.CompleteLatency.Snapshot())
	}
}

func TestAckingExplicitFail(t *testing.T) {
	const n = 200
	spout := &reliableSpout{n: n}
	// Every 4th tuple is failed by the mid bolt: 0,4,8,... = 50 failures.
	eng := startAckTopology(t, spout, &ackingBolt{failEvery: 4, forward: true}, Config{})
	eng.WaitSpouts()
	eng.Stop()
	acked, failed := spout.counts()
	if failed != n/4 {
		t.Fatalf("failed=%d, want %d", failed, n/4)
	}
	if acked != n-n/4 {
		t.Fatalf("acked=%d, want %d", acked, n-n/4)
	}
}

func TestAckingTimeout(t *testing.T) {
	const n = 60
	spout := &reliableSpout{n: n}
	// Every 3rd tuple is swallowed without an ack: its tree must time out.
	eng := startAckTopology(t, spout, &ackingBolt{dropEvery: 3, forward: true}, Config{
		AckTimeout: 300 * time.Millisecond,
	})
	eng.WaitSpouts()
	eng.Stop()
	acked, failed := spout.counts()
	if failed != n/3 {
		t.Fatalf("failed=%d, want %d (timeouts)", failed, n/3)
	}
	if acked != n-n/3 {
		t.Fatalf("acked=%d, want %d", acked, n-n/3)
	}
}

func TestMaxSpoutPendingThrottles(t *testing.T) {
	const n = 150
	spout := &reliableSpout{n: n}
	eng := startAckTopology(t, spout, &ackingBolt{forward: true}, Config{
		MaxSpoutPending: 8,
	})
	eng.WaitSpouts()
	eng.Stop()
	acked, failed := spout.counts()
	if acked != n || failed != 0 {
		t.Fatalf("acked=%d failed=%d", acked, failed)
	}
}

func TestMaxSpoutPendingRequiresAcking(t *testing.T) {
	b := NewTopologyBuilder()
	b.Spout("s", mkSpout, 1)
	topo, _ := b.Build()
	_, err := Start(topo, Config{Network: transport.NewInprocNetwork(0), MaxSpoutPending: 4})
	if err == nil {
		t.Fatal("MaxSpoutPending without AckEnabled accepted")
	}
}

// TestMaxSpoutPendingFitsSpoutQueue: a spout may not keep more trees in
// flight than its input queue has seats for the acker's answers, or the
// spout and a co-located acker block on each other's full queues.
func TestMaxSpoutPendingFitsSpoutQueue(t *testing.T) {
	b := NewTopologyBuilder()
	b.Spout("s", mkSpout, 1)
	topo, _ := b.Build()
	_, err := Start(topo, Config{
		Network:    transport.NewInprocNetwork(0),
		AckEnabled: true, MaxSpoutPending: 65, ExecutorQueueCap: 64,
	})
	if err == nil || !strings.Contains(err.Error(), "ExecutorQueueCap") {
		t.Fatalf("MaxSpoutPending above ExecutorQueueCap: err = %v, want a rejection", err)
	}
	eng, err := Start(topo, Config{
		Network:    transport.NewInprocNetwork(0),
		AckEnabled: true, MaxSpoutPending: 64, ExecutorQueueCap: 64,
	})
	if err != nil {
		t.Fatalf("MaxSpoutPending equal to ExecutorQueueCap rejected: %v", err)
	}
	eng.Stop()
}

func TestReservedAckerID(t *testing.T) {
	b := NewTopologyBuilder()
	b.Spout("__acker", mkSpout, 1)
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Start(topo, Config{Network: transport.NewInprocNetwork(0)}); err == nil {
		t.Fatal("reserved operator id accepted")
	}
}

func TestEmitReliableWithoutAckingDegrades(t *testing.T) {
	// EmitReliable on an ack-less engine must still deliver data.
	const n = 50
	spout := &reliableSpout{n: n}
	var count capture
	count.byTask = map[int32][]int64{}
	b := NewTopologyBuilder()
	b.Spout("src", func() Spout { return spout }, 1)
	b.Bolt("sink", func() Bolt { return &captureBolt{cap: &count} }, 2).Shuffle("src")
	topo, _ := b.Build()
	eng, err := Start(topo, Config{Workers: 2, Network: transport.NewInprocNetwork(0)})
	if err != nil {
		t.Fatal(err)
	}
	eng.WaitSpouts()
	if !eng.Drain(10 * time.Second) {
		eng.Stop()
		t.Fatal("drain failed")
	}
	eng.Stop()
	if count.total() != n {
		t.Fatalf("delivered %d of %d", count.total(), n)
	}
	acked, failed := spout.counts()
	if acked != 0 || failed != 0 {
		t.Fatalf("callbacks without ack plane: %d/%d", acked, failed)
	}
}

// replayingSpout re-queues failed ids until every id has been acked —
// the spout half of the timeout → Fail → replay at-least-once loop.
type replayingSpout struct {
	total    int
	next     int64
	replay   []int64
	deadline time.Time
	mu       sync.Mutex
	acked    map[int64]bool
	failed   map[int64]int
}

func (s *replayingSpout) Open(*TaskContext) {
	s.acked = map[int64]bool{}
	s.failed = map[int64]int{}
	s.deadline = time.Now().Add(30 * time.Second)
}

func (s *replayingSpout) Next(c *Collector) bool {
	if time.Now().After(s.deadline) {
		return false
	}
	s.mu.Lock()
	done := len(s.acked) >= s.total
	s.mu.Unlock()
	if done {
		return false
	}
	if len(s.replay) > 0 {
		id := s.replay[0]
		s.replay = s.replay[1:]
		c.EmitReliable(id, id)
		return true
	}
	if s.next < int64(s.total) {
		id := s.next
		s.next++
		c.EmitReliable(id, id)
		return true
	}
	time.Sleep(time.Millisecond)
	return true
}

func (s *replayingSpout) Close() {}

func (s *replayingSpout) Ack(msgID int64) {
	s.mu.Lock()
	s.acked[msgID] = true
	s.mu.Unlock()
}

func (s *replayingSpout) Fail(msgID int64) {
	s.mu.Lock()
	s.failed[msgID]++
	done := s.acked[msgID]
	s.mu.Unlock()
	if !done {
		s.replay = append(s.replay, msgID)
	}
}

// onceDropBolt swallows the first sighting of each id without acking, so
// every id's first reliability tree must time out.
type onceDropBolt struct{ seen map[int64]bool }

func (b *onceDropBolt) Prepare(*TaskContext) { b.seen = map[int64]bool{} }
func (b *onceDropBolt) Execute(tp *tuple.Tuple, c *Collector) {
	id := tp.Int(0)
	if !b.seen[id] {
		b.seen[id] = true
		c.NoAck()
	}
}
func (b *onceDropBolt) Cleanup() {}

func TestAckingTimeoutReplay(t *testing.T) {
	// Every id is dropped by every task on first delivery: round one times
	// out, the spout replays, round two completes. The loop closes
	// at-least-once delivery without any transport fault.
	const n = 30
	spout := &replayingSpout{total: n}
	b := NewTopologyBuilder()
	b.Spout("src", func() Spout { return spout }, 1)
	b.Bolt("fan", func() Bolt { return &onceDropBolt{} }, 4).All("src")
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	eng, err := Start(topo, Config{
		Workers: 3, Network: transport.NewInprocNetwork(0),
		Comm: WorkerOriented, Multicast: MulticastNonBlocking,
		FixedDstar: true, InitialDstar: 2,
		AckEnabled: true, AckTimeout: 200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng.WaitSpouts()
	eng.Stop()

	spout.mu.Lock()
	acked, failedIDs := len(spout.acked), len(spout.failed)
	spout.mu.Unlock()
	if acked != n {
		t.Fatalf("acked %d of %d after replay", acked, n)
	}
	if failedIDs != n {
		t.Fatalf("%d ids timed out, want all %d (first round swallowed)", failedIDs, n)
	}
	if got := eng.Metrics().TuplesFailed.Value(); got < n {
		t.Fatalf("TuplesFailed=%d, want >= %d", got, n)
	}
	if got := eng.Metrics().TuplesAcked.Value(); got != n {
		t.Fatalf("TuplesAcked=%d, want %d", got, n)
	}
}

func TestAckingWithAllGroupingMulticast(t *testing.T) {
	// Reliability across the one-to-many edge: every instance's processing
	// contributes to the tree; all must complete.
	const n, parallelism = 120, 8
	spout := &reliableSpout{n: n}
	b := NewTopologyBuilder()
	b.Spout("src", func() Spout { return spout }, 1)
	b.Bolt("fan", func() Bolt { return sinkAckBolt{} }, parallelism).All("src")
	topo, _ := b.Build()
	eng, err := Start(topo, Config{
		Workers: 4, Network: transport.NewInprocNetwork(0),
		Comm: WorkerOriented, Multicast: MulticastNonBlocking,
		FixedDstar: true, InitialDstar: 2,
		AckEnabled: true, Ackers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng.WaitSpouts()
	eng.Stop()
	acked, failed := spout.counts()
	if acked != n || failed != 0 {
		t.Fatalf("acked=%d failed=%d, want %d/0", acked, failed, n)
	}
}

// countingSpout is a reliable spout driven from the test goroutine: Next
// emits nothing, and Ack and Fail only count, so the callbacks allocate
// nothing of their own.
type countingSpout struct{ acked, failed int }

func (*countingSpout) Open(*TaskContext)    {}
func (*countingSpout) Next(*Collector) bool { return false }
func (*countingSpout) Close()               {}
func (s *countingSpout) Ack(int64)          { s.acked++ }
func (s *countingSpout) Fail(int64)         { s.failed++ }

// TestAckPlaneAllocsPerFrame is the ack plane's allocation gate: 4096
// reliability trees driven through init, bolt ack, acker settle and the
// spout's Ack on one worker may cost at most 0.05 heap objects per ack
// frame (init, ack and completion event), beyond the tuple slabs' one
// block per 157 tuples. Frames carry their values in the tuple header and
// the acker keeps its table by value, so nothing is boxed or allocated per
// tree.
func TestAckPlaneAllocsPerFrame(t *testing.T) {
	spout := &countingSpout{}
	b := NewTopologyBuilder()
	b.Spout("src", func() Spout { return spout }, 1)
	b.Bolt("sink", func() Bolt { return sinkAckBolt{} }, 1).Shuffle("src")
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	eng, err := Start(topo, Config{Workers: 1, Network: transport.NewInprocNetwork(0), AckEnabled: true})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Stop()
	eng.WaitSpouts() // the spout's goroutine is done: its executor is ours now
	ex := eng.workers[0].execMap()[eng.assign.TasksOf["src"][0]]

	const trees = 4096
	values := []tuple.Value{int64(1)}
	run := func() {
		want := spout.acked + trees
		for i := 0; i < trees; i++ {
			ex.emitReliable("src", int64(i), values)
			ex.drainSpoutEvents(false)
		}
		for spout.acked < want {
			ex.drainSpoutEvents(true)
		}
	}
	run() // grows the inboxes and the pending tables to hold a pass
	allocs := testing.AllocsPerRun(1, run)
	// Data, init, ack and event tuples each come from a slab: one block per
	// 157 of them, plus a partly used block per slab.
	const frames = 3 * trees
	slabBlocks := 4*trees/157 + 3
	if per := (allocs - float64(slabBlocks)) / frames; per > 0.05 && !raceEnabled {
		t.Fatalf("%d trees allocated %.0f objects, %.3f an ack frame beyond %d slab blocks, want <= 0.05",
			trees, allocs, per, slabBlocks)
	}
	if spout.failed != 0 || len(ex.pendingRoots) != 0 {
		t.Fatalf("%d trees failed and %d still pending, want none", spout.failed, len(ex.pendingRoots))
	}
	// The warm-up pass, AllocsPerRun's own warm-up call and the measured one.
	if got := eng.Metrics().TuplesAcked.Value(); got != 3*trees {
		t.Fatalf("TuplesAcked=%d, want %d", got, 3*trees)
	}
}

// TestAckFramePlacement checks that a header-only ack frame lands on the
// acker task fields grouping picked for the frame that carried its root
// as field 0, constructed or decoded, on every ack-plane stream.
func TestAckFramePlacement(t *testing.T) {
	b := NewTopologyBuilder()
	b.Spout("src", mkSpout, 1)
	b.Bolt("mid", mkBolt, 3).Shuffle("src")
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	acked := withAcking(topo, nil, 5, time.Second)
	a, err := Assign(acked, 3)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for _, c := range []struct{ op, stream string }{
		{"src", streamAckInit}, {"src", streamAck}, {"mid", streamAck}, {"mid", streamAckFail},
	} {
		r := newRouter(acked, a, c.op, 0)
		byField := newRouter(acked, a, c.op, 0)
		for i := range byField.routes[c.stream] {
			rt := &byField.routes[c.stream][i]
			if !rt.byRoot || rt.dstOp != ackerOperatorID {
				t.Fatalf("%s's %s edge to %s is not keyed by root", c.op, c.stream, rt.dstOp)
			}
			rt.byRoot = false
		}
		for i := 0; i < 500; i++ {
			root, val := nonzeroRand(rng), rng.Int63()
			frame := &tuple.Tuple{Stream: c.stream, RootID: root, AckVal: val, SrcTask: 2}
			valued := &tuple.Tuple{Stream: c.stream, Values: []tuple.Value{root, val, int64(2)}}
			raw, err := tuple.AppendTuple(nil, valued)
			if err != nil {
				t.Fatal(err)
			}
			decoded, _, err := tuple.DecodeTuple(raw)
			if err != nil {
				t.Fatal(err)
			}
			got := ackerTask(t, r, frame)
			for _, old := range []*tuple.Tuple{valued, decoded} {
				if want := ackerTask(t, byField, old); got != want {
					t.Fatalf("%s root %d: header-only frame goes to task %d, field 0 to %d", c.stream, root, got, want)
				}
			}
		}
	}
}

// ackerTask is the one task r routes tp to.
func ackerTask(t *testing.T, r *router, tp *tuple.Tuple) int32 {
	t.Helper()
	dests, err := r.destinations(tp.Stream, tp)
	if err != nil {
		t.Fatal(err)
	}
	if len(dests) != 1 || len(dests[0].tasks) != 1 {
		t.Fatalf("%s routes to %v, want one task", tp.Stream, dests)
	}
	return dests[0].tasks[0]
}
