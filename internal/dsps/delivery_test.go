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
