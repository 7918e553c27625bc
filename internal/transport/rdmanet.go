package transport

import (
	"fmt"
	"sync"

	"whale/internal/rdma"
)

// RDMANetwork connects workers through the emulated RDMA verbs channels of
// internal/rdma: kernel-bypass, ring memory regions, and opportunistic
// batching bounded by MMS — Whale's data path. Each worker owns one
// endpoint (device); channels are dialed lazily per destination.
type RDMANetwork struct {
	fabric *rdma.Fabric
	cfg    rdma.ChannelConfig

	mu      sync.Mutex
	workers map[WorkerID]*rdmaTransport
	closed  bool
}

// NewRDMANetwork creates a network on a fresh fabric. cost configures the
// emulated RNIC timing; cfg the channel mode and batching knobs.
func NewRDMANetwork(cost rdma.CostModel, cfg rdma.ChannelConfig) *RDMANetwork {
	return &RDMANetwork{
		fabric:  rdma.NewFabric(cost),
		cfg:     cfg,
		workers: map[WorkerID]*rdmaTransport{},
	}
}

// Register implements Network.
func (n *RDMANetwork) Register(id WorkerID, h Handler) (Transport, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil, fmt.Errorf("transport: network closed")
	}
	if _, dup := n.workers[id]; dup {
		return nil, fmt.Errorf("transport: worker %d already registered", id)
	}
	ep, err := rdma.NewEndpoint(n.fabric, workerDevName(id), n.cfg)
	if err != nil {
		return nil, err
	}
	t := &rdmaTransport{net: n, id: id, ep: ep, handler: h, chans: map[WorkerID]*rdma.Channel{}}
	ep.OnAccept(func(remote string, ch *rdma.Channel) {
		from, perr := parseWorkerDevName(remote)
		if perr != nil {
			return
		}
		ch.SetHandler(func(msg []byte) {
			t.stats.MsgsRecv.Add(1)
			t.stats.BytesRecv.Add(int64(len(msg)))
			t.handler(from, msg)
		})
		// Its own lock: a worker dialing itself runs this hook under t.mu.
		t.acceptMu.Lock()
		t.accepted = append(t.accepted, ch)
		t.acceptMu.Unlock()
	})
	n.workers[id] = t
	return t, nil
}

// Close implements Network.
func (n *RDMANetwork) Close() error {
	n.mu.Lock()
	ws := make([]*rdmaTransport, 0, len(n.workers))
	for _, w := range n.workers {
		ws = append(ws, w)
	}
	n.closed = true
	n.mu.Unlock()
	var first error
	for _, w := range ws {
		if err := w.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

func workerDevName(id WorkerID) string { return fmt.Sprintf("worker-%d", id) }

func parseWorkerDevName(name string) (WorkerID, error) {
	var id WorkerID
	if _, err := fmt.Sscanf(name, "worker-%d", &id); err != nil {
		return 0, fmt.Errorf("transport: bad device name %q", name)
	}
	return id, nil
}

type rdmaTransport struct {
	net     *RDMANetwork
	id      WorkerID
	ep      *rdma.Endpoint
	handler Handler

	mu    sync.Mutex
	chans map[WorkerID]*rdma.Channel

	acceptMu sync.Mutex
	accepted []*rdma.Channel // receiving halves, for their poll counters

	stats     Stats
	closeOnce sync.Once
}

// Send implements Transport. The message lands in the channel's pending
// batch, which leaves with the call if the link is free and as soon as it
// comes free otherwise (or once it reaches MMS).
func (t *rdmaTransport) Send(to WorkerID, payload []byte) error {
	ch, err := t.chanTo(to)
	if err != nil {
		return err
	}
	return timedSend(&t.stats, len(payload), func() error {
		return ch.Send(payload)
	})
}

func (t *rdmaTransport) chanTo(to WorkerID) (*rdma.Channel, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if ch, ok := t.chans[to]; ok {
		return ch, nil
	}
	t.net.mu.Lock()
	_, known := t.net.workers[to]
	t.net.mu.Unlock()
	if !known {
		return nil, errUnknownWorker(to)
	}
	ch, err := t.ep.Dial(workerDevName(to))
	if err != nil {
		return nil, err
	}
	t.chans[to] = ch
	return ch, nil
}

// Flush implements Transport: it forces all per-destination batches out.
func (t *rdmaTransport) Flush() error {
	t.mu.Lock()
	chans := make([]*rdma.Channel, 0, len(t.chans))
	for _, ch := range t.chans {
		chans = append(chans, ch)
	}
	t.mu.Unlock()
	for _, ch := range chans {
		if err := ch.Flush(); err != nil {
			return err
		}
	}
	return nil
}

// Stats implements Transport.
func (t *rdmaTransport) Stats() *Stats { return &t.stats }

// Pressure implements Transport: occupancy of the destination channel's ring
// region (pending batch + published-but-unconsumed bytes) as a percentage of
// its size. A destination that was never dialed has no ring and no pressure.
func (t *rdmaTransport) Pressure(to WorkerID) int {
	t.mu.Lock()
	ch, ok := t.chans[to]
	t.mu.Unlock()
	if !ok {
		return 0
	}
	return ch.PressurePct()
}

// ChannelStats aggregates the underlying rdma channel counters: the send
// side of the channels this worker dialed, the receive side (poll counts
// and time) of those it accepted.
func (t *rdmaTransport) ChannelStats() rdma.StatsSnapshot {
	var agg rdma.StatsSnapshot
	t.mu.Lock()
	for _, ch := range t.chans {
		agg.Add(ch.Stats())
	}
	t.mu.Unlock()
	t.acceptMu.Lock()
	defer t.acceptMu.Unlock()
	for _, ch := range t.accepted {
		agg.Add(ch.Stats())
	}
	return agg
}

// RingOccupancy sums the bytes currently occupying this worker's outbound
// ring regions (published-but-unconsumed plus pending batches) across all
// dialed channels. The engine's observability layer polls it as the
// per-worker "rdma.ring_occupancy" gauge.
func (t *rdmaTransport) RingOccupancy() int {
	t.mu.Lock()
	chans := make([]*rdma.Channel, 0, len(t.chans))
	for _, ch := range t.chans {
		chans = append(chans, ch)
	}
	t.mu.Unlock()
	occ := 0
	for _, ch := range chans {
		occ += ch.RingOccupancy()
	}
	return occ
}

// Close implements Transport.
func (t *rdmaTransport) Close() error {
	var err error
	t.closeOnce.Do(func() {
		err = t.ep.Close()
	})
	return err
}
