package dsps

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"whale/internal/transport"
	"whale/internal/tuple"
)

// orderBolt checks that sequence numbers only ever increase, and records
// the highest one seen at every snapshot.
type orderBolt struct {
	last      int64 // bolt goroutine only
	seen      atomic.Int64
	inverted  atomic.Int64
	mu        sync.Mutex
	snapshots []int64
}

func (b *orderBolt) Prepare(*TaskContext) {}
func (b *orderBolt) Cleanup()             {}
func (b *orderBolt) Execute(tp *tuple.Tuple, _ *Collector) {
	seq := tp.Int(0)
	if seq < b.last {
		b.inverted.Add(1)
	}
	b.last = seq
	b.seen.Add(1)
}

func (b *orderBolt) SnapshotState() ([]byte, error) {
	b.mu.Lock()
	b.snapshots = append(b.snapshots, b.last)
	b.mu.Unlock()
	return nil, nil
}
func (b *orderBolt) RestoreState([]byte) error { return nil }

// TestRemoteDeliveryKeepsLinkOrder: everything one worker receives for one
// executor reaches it in arrival order, whether a tuple took the direct seat
// or was parked behind a full input queue — the per-link FIFO that barrier
// alignment relies on. One producer (standing in for the delivery loop)
// sends bursts of three into an input queue of one, so most tuples park, and
// starts the next burst once the sink has executed all but the last tuple —
// the moment the feeder is seating that one. With barriers, each must cut
// exactly the tuples sent before it.
func TestRemoteDeliveryKeepsLinkOrder(t *testing.T) {
	const total, burst = 60000, 3
	for _, tc := range []struct {
		name         string
		barrierEvery int64
	}{{"data", 0}, {"barriers", 4}} {
		t.Run(tc.name, func(t *testing.T) {
			sink := &orderBolt{}
			b := NewTopologyBuilder()
			b.Spout("src", func() Spout { return &countSpout{n: 0, keys: 1} }, 1)
			b.Bolt("sink", func() Bolt { return sink }, 1).Shuffle("src")
			topo, err := b.Build()
			if err != nil {
				t.Fatal(err)
			}
			cfg := Config{Workers: 2, Network: transport.NewInprocNetwork(0), ExecutorQueueCap: 1}
			if tc.barrierEvery > 0 {
				cfg.CheckpointInterval = time.Hour // barriers come from this test only
			}
			eng, err := Start(topo, cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Stop()
			eng.WaitSpouts()
			src, dst := eng.assign.TasksOf["src"][0], eng.assign.TasksOf["sink"][0]
			from, w := eng.assign.WorkerOf[src], eng.workers[eng.assign.WorkerOf[dst]]

			deadline := time.Now().Add(60 * time.Second)
			var epoch int64
			for seq := int64(1); seq <= total; seq++ {
				w.enqueueRemote(from, dst, &tuple.Tuple{Stream: "src", Values: []tuple.Value{seq}, SrcTask: src, RootEmitNS: 1})
				if tc.barrierEvery > 0 && seq%tc.barrierEvery == 0 {
					epoch++
					w.enqueueRemote(from, dst, barrier(src, epoch).Data)
				}
				for seq%burst == 0 && sink.seen.Load() < seq-1 {
					if time.Now().After(deadline) {
						t.Fatalf("sink saw %d of %d tuples", sink.seen.Load(), seq)
					}
					runtime.Gosched()
				}
			}
			if !eng.Drain(10 * time.Second) {
				t.Fatal("engine did not drain")
			}
			if n := sink.inverted.Load(); n != 0 {
				t.Errorf("%d of %d tuples were delivered behind a newer one", n, total)
			}
			sink.mu.Lock()
			defer sink.mu.Unlock()
			if int64(len(sink.snapshots)) != epoch {
				t.Fatalf("%d snapshots for %d barriers", len(sink.snapshots), epoch)
			}
			for i, last := range sink.snapshots {
				if want := int64(i+1) * tc.barrierEvery; last != want {
					t.Errorf("barrier %d overtook: snapshot cut at seq %d, want %d", i+1, last, want)
					break
				}
			}
		})
	}
}

// gatedNetwork wraps a network so that one worker's sends block while the
// gate is shut.
type gatedNetwork struct {
	transport.Network
	worker transport.WorkerID
	gate   chan struct{} // closed to open
}

type gatedTransport struct {
	transport.Transport
	gate chan struct{}
}

func (n *gatedNetwork) Register(id transport.WorkerID, h transport.Handler) (transport.Transport, error) {
	tr, err := n.Network.Register(id, h)
	if err != nil || id != n.worker {
		return tr, err
	}
	return &gatedTransport{Transport: tr, gate: n.gate}, nil
}

func (t *gatedTransport) Send(to transport.WorkerID, payload []byte) error {
	<-t.gate
	return t.Transport.Send(to, payload)
}

// TestDrainWaitsForTakenBatch: a message the delivery loop has taken from
// the staging mailbox but not finished delivering is still in flight. The
// receiver's grant send is held shut, which parks its delivery loop in the
// middle of the one message there is — every queue is empty and every
// counter stable, yet Drain must not report quiescence until the loop is
// done with it.
func TestDrainWaitsForTakenBatch(t *testing.T) {
	net := &gatedNetwork{Network: transport.NewInprocNetwork(0), worker: 1, gate: make(chan struct{})}
	c := newCapture()
	b := NewTopologyBuilder()
	b.Spout("src", func() Spout { return &countSpout{n: 1, keys: 1} }, 1)
	b.Bolt("sink", func() Bolt { return &captureBolt{cap: c} }, 1).Shuffle("src")
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	// A window of 8 grants every unit, so the first delivery already sends.
	eng, err := Start(topo, Config{Workers: 2, Network: net, CreditWindow: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Stop()
	openGate := sync.OnceFunc(func() { close(net.gate) })
	defer openGate() // before Stop on every path: Stop joins the delivery loop
	eng.WaitSpouts()
	for deadline := time.Now().Add(5 * time.Second); c.total() < 1; {
		if time.Now().After(deadline) {
			t.Fatal("tuple never reached the sink")
		}
		time.Sleep(time.Millisecond)
	}
	if eng.Drain(100 * time.Millisecond) {
		t.Fatal("Drain reported quiescence while the delivery loop held a taken message")
	}
	openGate()
	if !eng.Drain(5 * time.Second) {
		t.Fatal("Drain did not settle once the delivery loop finished the message")
	}
}

// workerMessage encodes one data message carrying tp, or payload verbatim
// when it is non-nil (a corrupt tuple).
func workerMessage(t *testing.T, m tuple.WorkerMessage, tp *tuple.Tuple, payload []byte) []byte {
	t.Helper()
	if payload == nil {
		var err error
		if payload, err = tuple.NewEncoder().EncodeTuple(tp); err != nil {
			t.Fatal(err)
		}
	}
	m.Payload = payload
	return tuple.AppendWorkerMessage(nil, &m)
}

// drainedFrom is the cumulative units w has granted back to worker src.
func drainedFrom(w *worker, src int32) int64 {
	in := &w.fc.in[src]
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.drained
}

// TestDeliverGrantsEveryUnitOnce: every delivery unit a sender charges
// comes back exactly once, whichever way the receiver disposes of it. A
// message the delivery loop cannot decode, or whose tasks have no
// executor here, is granted in full at once. A multicast message reaching
// a worker with k local tasks, one of which has a full input queue, grants
// the relay-acceptance unit and the k-1 direct seats from the delivery
// loop and the parked tuple's unit from the feeder once it is seated:
// 1+k in total.
func TestDeliverGrantsEveryUnitOnce(t *testing.T) {
	gate := make(chan struct{})
	openGate := sync.OnceFunc(func() { close(gate) })
	b := NewTopologyBuilder()
	b.Spout("src", func() Spout { return &countSpout{n: 0, keys: 1} }, 1)
	b.Bolt("sink", func() Bolt {
		return &funcBolt{exec: func(*TaskContext, *tuple.Tuple, *Collector) { <-gate }}
	}, 4).All("src")
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	eng, err := Start(topo, Config{
		Workers: 2, Network: transport.NewInprocNetwork(0), ExecutorQueueCap: 1,
		Comm: WorkerOriented, Multicast: MulticastNonBlocking, FixedDstar: true, InitialDstar: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Stop()
	defer openGate() // before Stop: the sinks block on it
	eng.WaitSpouts()

	src := eng.assign.WorkerOf[eng.assign.TasksOf["src"][0]]
	w := eng.workers[1-src]
	gid, ok := eng.groupOf("src", "src", src)
	if !ok {
		t.Fatal("no multicast group for the spout's worker")
	}
	locals := eng.groupLocalTasks(gid, w.id)
	k := int64(len(locals))
	if k < 2 {
		t.Fatalf("%d group-local tasks on worker %d, want at least 2", k, w.id)
	}
	_, version, _ := w.groups[gid].Load().activeTree()
	data := &tuple.Tuple{Stream: "src", Values: []tuple.Value{int64(1), "k"}, SrcTask: eng.assign.TasksOf["src"][0], RootEmitNS: 1}
	corrupt := []byte{0xff, 0xff, 0xff}

	deliver := func(raw []byte) {
		t.Helper()
		w.staged.put(inboundData{from: src, raw: raw})
		for deadline := time.Now().Add(5 * time.Second); w.staged.len() > 0; {
			if time.Now().After(deadline) {
				t.Fatal("the delivery loop never finished the message")
			}
			time.Sleep(time.Millisecond)
		}
	}
	expect := func(what string, want int64) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for drainedFrom(w, src) < want && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		time.Sleep(20 * time.Millisecond) // a double grant would land by now
		if got := drainedFrom(w, src); got != want {
			t.Fatalf("%s: %d units granted in total, want %d", what, got, want)
		}
	}

	var want int64
	deliver(workerMessage(t, tuple.WorkerMessage{Kind: tuple.KindWorkerMessage, DstIDs: locals}, nil, corrupt))
	want += k
	expect("worker message with an undecodable tuple", want)

	deliver(workerMessage(t, tuple.WorkerMessage{Kind: tuple.KindWorkerMessage, DstIDs: []int32{9998, 9999}}, data, nil))
	want += 2
	expect("worker message for tasks with no executor", want)

	mc := tuple.WorkerMessage{Kind: tuple.KindMulticastMessage, Group: gid, TreeVersion: version, SrcWorker: src}
	deliver(workerMessage(t, mc, nil, corrupt))
	want += 1 + k
	expect("multicast message with an undecodable tuple", want)

	unknown := mc
	unknown.Group = gid + 100
	deliver(workerMessage(t, unknown, data, nil))
	want++
	expect("multicast message for an unknown group", want)

	// Fill the first local task's input queue: one filler blocks in Execute
	// on the gate, the next takes the only seat. Local fillers owe no units.
	full := w.execMap()[locals[0]]
	for i := 0; i < 2; i++ {
		full.in <- tuple.AddressedTuple{TaskID: locals[0], Src: tuple.LocalSrc, Data: data}
	}
	deliver(workerMessage(t, mc, data, nil))
	if full.inbox.len() != 1 {
		t.Fatalf("%d tuples parked for the full task, want 1", full.inbox.len())
	}
	want += k // the relay-acceptance unit and k-1 direct seats
	expect("multicast message before the parked tuple is seated", want)
	openGate()
	want++ // the feeder seats the parked tuple
	expect("multicast message after the parked tuple is seated", want)
	if !eng.Drain(5 * time.Second) {
		t.Fatal("engine did not drain")
	}
	expect("after the drain", want)
}

// TestDrainWaitsForPoppedBatch: a batch a flow link has popped but not yet
// handed to the transport is still in flight. The sender's data sends pass
// one at a time through a turnstile: the first item goes out alone, and
// while it is held, four more queue behind it; releasing it lets the link
// pop those four as one batch and hold on the first of them. Every queue
// is then empty and every counter stable, yet Drain must not report
// quiescence until the batch is sent.
func TestDrainWaitsForPoppedBatch(t *testing.T) {
	gate := make(chan struct{})
	net := &gatedNetwork{Network: transport.NewInprocNetwork(0), worker: 0, gate: gate}
	c := newCapture()
	b := NewTopologyBuilder()
	b.Spout("src", func() Spout { return &countSpout{n: 0, keys: 1} }, 1)
	b.Bolt("sink", func() Bolt { return &captureBolt{cap: c} }, 1).Shuffle("src")
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	eng, err := Start(topo, Config{Workers: 2, Network: net, CreditWindow: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Stop()
	openGate := sync.OnceFunc(func() { close(gate) })
	defer openGate() // before Stop on every path: Stop joins the link
	eng.WaitSpouts()

	sink := eng.assign.TasksOf["sink"][0]
	w, dst := eng.workers[0], eng.assign.WorkerOf[sink]
	if dst == w.id {
		t.Fatal("the sink shares the gated worker")
	}
	raw := workerMessage(t, tuple.WorkerMessage{Kind: tuple.KindWorkerMessage, DstIDs: []int32{sink}},
		&tuple.Tuple{Stream: "src", Values: []tuple.Value{int64(1), "k"}, SrcTask: eng.assign.TasksOf["src"][0], RootEmitNS: 1}, nil)
	push := func() { w.fc.push(dst, flowItem{raw: raw, cost: 1, tuples: 1}) }
	l := w.fc.linkTo(dst)
	waitBusy := func(n int32) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); ; {
			l.mu.Lock()
			queued := len(l.live())
			l.mu.Unlock()
			if queued == 0 && l.busy.Load() == n {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("link holds %d popped and %d queued items, want %d popped and none queued", l.busy.Load(), queued, n)
			}
			time.Sleep(time.Millisecond)
		}
	}

	push()
	waitBusy(1)
	for i := 0; i < 4; i++ {
		push()
	}
	gate <- struct{}{} // the first item's send goes through
	waitBusy(4)
	if eng.Drain(100 * time.Millisecond) {
		t.Fatal("Drain reported quiescence while the link held a popped batch")
	}
	openGate()
	if !eng.Drain(5 * time.Second) {
		t.Fatal("Drain did not settle once the batch was sent")
	}
	if got := c.total(); got != 5 {
		t.Fatalf("sink saw %d tuples, want 5", got)
	}
}
