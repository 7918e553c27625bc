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
// executor reaches it in arrival order, whether a tuple found room or was
// parked behind a full inbox — the per-link FIFO that barrier alignment
// relies on. One producer (standing in for the delivery loop) sends bursts
// of three into an inbox of one, so most tuples park, and starts the next
// burst once the sink has executed all but the last tuple — the moment the
// executor is taking that one. With barriers, each must cut exactly the
// tuples sent before it.
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
// a worker with k local tasks, one of which has a full inbox, grants the
// relay-acceptance unit and the k-1 admitted tuples from the delivery loop
// and the parked tuple's unit from the executor once it takes it: 1+k in
// total.
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

	// Fill the first local task's inbox: one filler blocks in Execute on the
	// gate, the next waits untaken. Local fillers owe no units.
	full := w.execMap()[locals[0]]
	for i := 0; i < 2; i++ {
		w.enqueueLocal(locals[0], data)
	}
	deliver(workerMessage(t, mc, data, nil))
	if n := owedIn(full); n != 1 {
		t.Fatalf("%d tuples parked for the full task, want 1", n)
	}
	want += k // the relay-acceptance unit and k-1 direct seats
	expect("multicast message before the parked tuple is seated", want)
	openGate()
	want++ // the executor takes the parked tuple
	expect("multicast message after the parked tuple is seated", want)
	if !eng.Drain(5 * time.Second) {
		t.Fatal("engine did not drain")
	}
	expect("after the drain", want)
}

// owedIn counts the entries in ex's inbox whose units are owed until taken.
func owedIn(ex *executor) int {
	ex.inbox.mu.Lock()
	defer ex.inbox.mu.Unlock()
	n := 0
	for _, e := range ex.inbox.q {
		if e.owed {
			n++
		}
	}
	return n
}

// TestOwedUnitsGrantedOnTake: a remote tuple put behind a full inbox owes
// its unit, and the executor grants it when it takes the tuple — before
// running it, one grant per source worker per take. Tuples from two source
// workers land behind a cap-1 inbox whose task is stalled: none is granted
// at put, and each source gets exactly its count back once the batch is
// taken, while the task is stalled again on the batch's first tuple.
func TestOwedUnitsGrantedOnTake(t *testing.T) {
	release := make(chan struct{})
	stop := make(chan struct{})
	b := NewTopologyBuilder()
	b.Spout("src", func() Spout { return &countSpout{n: 0, keys: 1} }, 1)
	b.Bolt("sink", func() Bolt {
		return &funcBolt{exec: func(*TaskContext, *tuple.Tuple, *Collector) {
			select {
			case <-release:
			case <-stop:
			}
		}}
	}, 1).Shuffle("src")
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	eng, err := Start(topo, Config{Workers: 3, Network: transport.NewInprocNetwork(0), ExecutorQueueCap: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Stop()
	defer close(stop) // before Stop: the sink blocks until released
	eng.WaitSpouts()

	dst := eng.assign.TasksOf["sink"][0]
	w := eng.workers[eng.assign.WorkerOf[dst]]
	ex := w.execMap()[dst]
	a, c := (w.id+1)%3, (w.id+2)%3
	filler := &tuple.Tuple{Stream: "src", Values: []tuple.Value{int64(0), "k"}, RootEmitNS: 1}
	w.enqueueLocal(dst, filler) // taken at once; blocks in Execute
	w.enqueueLocal(dst, filler) // waits for that take, then fills the inbox
	baseA, baseC := drainedFrom(w, a), drainedFrom(w, c)
	for i, src := range []int32{a, c, a, a, c} {
		if !w.enqueueRemote(src, dst, filler) {
			t.Fatalf("remote tuple %d was admitted into a full inbox", i)
		}
	}
	time.Sleep(20 * time.Millisecond) // a grant at put would land by now
	if da, dc := drainedFrom(w, a)-baseA, drainedFrom(w, c)-baseC; da != 0 || dc != 0 {
		t.Fatalf("granted %d and %d units at put, want none", da, dc)
	}
	release <- struct{}{} // the first filler finishes; the rest is one take
	for deadline := time.Now().Add(5 * time.Second); ex.untaken.Load() != 0; {
		if time.Now().After(deadline) {
			t.Fatal("the executor never took the owed tuples")
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond) // a double grant would land by now
	if da, dc := drainedFrom(w, a)-baseA, drainedFrom(w, c)-baseC; da != 3 || dc != 2 {
		t.Fatalf("granted %d and %d units once taken, want 3 and 2", da, dc)
	}
}

// TestLocalPutWaitsForRoom: local producers wait while the inbox is full
// and are woken by the executor's takes. Four producers block behind a
// cap-1 inbox whose task is stalled; once it runs, every producer finishes,
// each one's tuples arrive in its own order, and no wake-up is lost.
func TestLocalPutWaitsForRoom(t *testing.T) {
	const producers, perProducer = 4, 500
	gate := make(chan struct{})
	openGate := sync.OnceFunc(func() { close(gate) })
	var last [producers]int64 // bolt goroutine only
	var seen, inverted atomic.Int64
	b := NewTopologyBuilder()
	b.Spout("src", func() Spout { return &countSpout{n: 0, keys: 1} }, 1)
	b.Bolt("sink", func() Bolt {
		return &funcBolt{exec: func(_ *TaskContext, tp *tuple.Tuple, _ *Collector) {
			<-gate
			p, seq := tp.Int(0), tp.Int(1)
			if seq != last[p]+1 {
				inverted.Add(1)
			}
			last[p] = seq
			seen.Add(1)
		}}
	}, 1).Shuffle("src")
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	eng, err := Start(topo, Config{Workers: 1, Network: transport.NewInprocNetwork(0), ExecutorQueueCap: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Stop()
	defer openGate() // before Stop on every path: the sink blocks on it
	eng.WaitSpouts()

	dst := eng.assign.TasksOf["sink"][0]
	w := eng.workers[eng.assign.WorkerOf[dst]]
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int64) {
			defer wg.Done()
			for seq := int64(1); seq <= perProducer; seq++ {
				w.enqueueLocal(dst, &tuple.Tuple{Stream: "src", Values: []tuple.Value{p, seq}})
			}
		}(int64(p))
	}
	time.Sleep(20 * time.Millisecond) // every producer is waiting by now
	openGate()
	finished := make(chan struct{})
	go func() { wg.Wait(); close(finished) }()
	select {
	case <-finished:
	case <-time.After(10 * time.Second):
		t.Fatalf("producers stuck: the sink saw %d of %d tuples", seen.Load(), producers*perProducer)
	}
	if !eng.Drain(5 * time.Second) {
		t.Fatal("engine did not drain")
	}
	if got := seen.Load(); got != producers*perProducer {
		t.Fatalf("sink saw %d tuples, want %d", got, producers*perProducer)
	}
	if n := inverted.Load(); n != 0 {
		t.Fatalf("%d tuples arrived out of their producer's order", n)
	}
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

// raceEnabled is set by race_test.go under -race.
var raceEnabled bool

// TestDeliverDataAllocsPerMessage is the receive path's allocation gate:
// 4096 multicast messages fed through a leaf worker's delivery path to its
// four local tasks may cost at most 0.05 heap objects each, for everything
// the engine does with them. The decoded tuples come out of the delivery
// loop's slab (tuple.Slab), not one allocation per message.
func TestDeliverDataAllocsPerMessage(t *testing.T) {
	b := NewTopologyBuilder()
	b.Spout("src", func() Spout { return &countSpout{n: 0, keys: 1} }, 1)
	b.Bolt("sink", func() Bolt {
		return &funcBolt{exec: func(_ *TaskContext, tp *tuple.Tuple, _ *Collector) { _ = tp.Int(0) }}
	}, 4).All("src")
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	eng, err := Start(topo, Config{
		Workers: 2, Network: transport.NewInprocNetwork(0),
		Comm: WorkerOriented, Multicast: MulticastNonBlocking, FixedDstar: true, InitialDstar: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Stop()
	eng.WaitSpouts()

	srcTask := eng.assign.TasksOf["src"][0]
	src := eng.assign.WorkerOf[srcTask]
	w := eng.workers[1-src]
	gid, ok := eng.groupOf("src", "src", src)
	if !ok {
		t.Fatal("no multicast group for the spout's worker")
	}
	tr, version, _ := w.groups[gid].Load().activeTree()
	if n := len(tr.Children(w.id)); n != 0 {
		t.Fatalf("worker %d relays to %d children, want a leaf", w.id, n)
	}
	if k := len(eng.groupLocalTasks(gid, w.id)); k < 2 {
		t.Fatalf("%d group-local tasks on worker %d, want at least 2", k, w.id)
	}

	const msgs = 4096
	mc := tuple.WorkerMessage{Kind: tuple.KindMulticastMessage, Group: gid, TreeVersion: version, SrcWorker: src}
	raws := make([][]byte, msgs)
	for i := range raws {
		raws[i] = workerMessage(t, mc, &tuple.Tuple{Stream: "src", Values: []tuple.Value{int64(i), "k"},
			ID: int64(i + 1), SrcTask: srcTask, RootEmitNS: 1}, nil)
	}
	// Stand in for the delivery loop, which stays idle: nothing is staged.
	var scratch tuple.WorkerMessage
	var slab tuple.Slab
	deliverAll := func() {
		for _, raw := range raws {
			if _, err := tuple.DecodeWorkerMessageInto(&scratch, raw); err != nil {
				t.Fatal(err)
			}
			w.deliverData(transport.WorkerID(src), &scratch, raw, &slab)
		}
	}
	deliverAll() // grows the inboxes to hold a pass
	if !eng.Drain(10 * time.Second) {
		t.Fatal("engine did not drain")
	}
	allocs := testing.AllocsPerRun(1, deliverAll)
	if per := allocs / msgs; per > 0.05 && !raceEnabled {
		t.Fatalf("delivering %d multicast messages allocated %.0f objects, %.3f a message, want <= 0.05",
			msgs, allocs, per)
	}
	if !eng.Drain(10 * time.Second) {
		t.Fatal("engine did not drain")
	}
}
