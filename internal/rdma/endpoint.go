package rdma

import (
	"fmt"
	"sync"
)

// Endpoint is the connection manager for one device: it accepts and dials
// channels, performing the queue-pair and rkey exchange that a real
// deployment would do over a TCP side channel.
type Endpoint struct {
	fabric *Fabric
	dev    *Device
	pd     *PD
	cfg    ChannelConfig

	mu       sync.Mutex
	acceptFn func(remote string, ch *Channel)
	channels []*Channel
	closed   bool
}

// NewEndpoint creates a device named name on the fabric and an endpoint
// managing channels for it.
func NewEndpoint(f *Fabric, name string, cfg ChannelConfig) (*Endpoint, error) {
	dev, err := f.NewDevice(name)
	if err != nil {
		return nil, err
	}
	e := &Endpoint{fabric: f, dev: dev, pd: dev.AllocPD(), cfg: cfg.withDefaults()}
	// The device name was just claimed on the fabric, so the endpoint name
	// (the same string) is free too.
	f.mu.Lock()
	f.endpoints[name] = e
	f.mu.Unlock()
	return e, nil
}

// Name returns the endpoint's device name.
func (e *Endpoint) Name() string { return e.dev.name }

// Device returns the endpoint's device (for direct verbs use in tests and
// microbenchmarks).
func (e *Endpoint) Device() *Device { return e.dev }

// OnAccept installs the hook invoked (synchronously, before any data flows)
// for every inbound channel. The hook must call SetHandler on the channel.
func (e *Endpoint) OnAccept(fn func(remote string, ch *Channel)) {
	e.mu.Lock()
	e.acceptFn = fn
	e.mu.Unlock()
}

// Dial establishes a unidirectional channel to the named remote endpoint
// using the endpoint's configured mode, returning the send side. The remote
// endpoint's accept hook receives the receive side.
func (e *Endpoint) Dial(remote string) (*Channel, error) {
	e.fabric.mu.Lock()
	re, ok := e.fabric.endpoints[remote]
	e.fabric.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("rdma: no endpoint %q on fabric", remote)
	}
	re.mu.Lock()
	acceptFn := re.acceptFn
	re.mu.Unlock()
	if acceptFn == nil {
		return nil, fmt.Errorf("rdma: endpoint %q is not accepting", remote)
	}

	cfg := e.cfg
	bell, room := make(chan struct{}, 1), make(chan struct{}, 1)
	send := &Channel{cfg: cfg, local: e.Name(), remote: remote, bell: bell, room: room,
		done: make(chan struct{}), flushSem: make(chan struct{}, 1)}
	recv := &Channel{cfg: cfg, local: remote, remote: e.Name(), bell: bell, room: room,
		done: make(chan struct{}), flushSem: make(chan struct{}, 1)}
	send.peer, recv.peer = recv, send

	switch cfg.Mode {
	case ModeOneSidedRead:
		// Sender owns the ring; the receiver's QP drives READ/WRITE.
		ringMR, err := RegisterMemory(e.pd, cfg.RingSize, AccessRemoteRead|AccessRemoteWrite)
		if err != nil {
			return nil, err
		}
		ring, err := NewRing(ringMR)
		if err != nil {
			return nil, err
		}
		send.ring = ring
		stage, err := RegisterMemory(re.pd, cfg.RingSize, AccessLocalWrite)
		if err != nil {
			return nil, err
		}
		rcq := NewCQ(qpDepth)
		rqp := CreateQP(re.pd, rcq, NewCQ(1), QPCap{SendDepth: qpDepth})
		sqp := CreateQP(e.pd, NewCQ(1), NewCQ(1), QPCap{})
		if err := ConnectPair(sqp, rqp); err != nil {
			return nil, err
		}
		send.sqp = sqp
		rr, err := NewRemoteRing(rqp, stage, ringMR.RKey(), ring.DataSize())
		if err != nil {
			return nil, err
		}
		recv.rqp, recv.rcq, recv.rring = rqp, rcq, rr
		acceptFn(e.Name(), recv)
		recv.wg.Add(1)
		go recv.recvLoopRead()

	case ModeTwoSided:
		scq := NewCQ(qpDepth)
		sqp := CreateQP(e.pd, scq, NewCQ(1), QPCap{SendDepth: qpDepth})
		rcq := NewCQ(qpDepth)
		// Receive slots sized for a full batch: MMS plus one max message
		// overshoot margin.
		slotSize := cfg.MMS * 2
		nslots := qpDepth
		slots, err := RegisterMemory(re.pd, slotSize*nslots, AccessLocalWrite)
		if err != nil {
			return nil, err
		}
		rqp := CreateQP(re.pd, NewCQ(1), rcq, QPCap{RecvDepth: nslots})
		if err := ConnectPair(sqp, rqp); err != nil {
			return nil, err
		}
		for i := 0; i < nslots; i++ {
			if err := rqp.PostRecv(WR{WRID: uint64(i), Op: OpRecv,
				Local: SGE{MR: slots, Offset: i * slotSize, Length: slotSize}}); err != nil {
				return nil, err
			}
		}
		send.sqp, send.scq = sqp, scq
		send.inflight = make(chan struct{}, qpDepth)
		recv.rqp, recv.rcq = rqp, rcq
		recv.slots, recv.slotSize, recv.nslots = slots, slotSize, nslots
		acceptFn(e.Name(), recv)
		send.wg.Add(1)
		go send.senderReaper()
		recv.wg.Add(1)
		go recv.recvLoopTwoSided()

	case ModeOneSidedWrite:
		// Receiver owns the ring; the sender's QP drives the data WRITEs,
		// the receiver's QP WRITEs its tail back into the sender's feedback
		// word.
		ringMR, err := RegisterMemory(re.pd, cfg.RingSize, AccessRemoteWrite)
		if err != nil {
			return nil, err
		}
		ring, err := NewRing(ringMR)
		if err != nil {
			return nil, err
		}
		feedback, err := RegisterMemory(e.pd, 8, AccessRemoteWrite)
		if err != nil {
			return nil, err
		}
		scq := NewCQ(qpDepth)
		sqp := CreateQP(e.pd, scq, NewCQ(1), QPCap{SendDepth: qpDepth})
		rcq := NewCQ(1)
		rqp := CreateQP(re.pd, rcq, NewCQ(1), QPCap{})
		if err := ConnectPair(sqp, rqp); err != nil {
			return nil, err
		}
		send.sqp, send.scq = sqp, scq
		// Field-wise init: the head cursor is an atomic, so the struct must
		// not be copied wholesale.
		send.remoteRing.rkey = ringMR.RKey()
		send.remoteRing.dataSize = ring.DataSize()
		send.remoteRing.feedback = feedback
		recv.rqp, recv.rcq = rqp, rcq
		recv.localRing = ring
		recv.tailTo = RemoteAddr{RKey: feedback.RKey()}
		acceptFn(e.Name(), recv)
		recv.wg.Add(1)
		go recv.recvLoopLocalRing()

	default:
		return nil, fmt.Errorf("rdma: unknown channel mode %v", cfg.Mode)
	}

	e.mu.Lock()
	e.channels = append(e.channels, send)
	e.mu.Unlock()
	re.mu.Lock()
	re.channels = append(re.channels, recv)
	re.mu.Unlock()
	return send, nil
}

// Close takes the endpoint off the fabric (it can no longer be dialed),
// closes every channel it dialed or accepted and returns the first close
// error.
func (e *Endpoint) Close() error {
	e.fabric.mu.Lock()
	if e.fabric.endpoints[e.Name()] == e {
		delete(e.fabric.endpoints, e.Name())
	}
	e.fabric.mu.Unlock()
	e.mu.Lock()
	chans := e.channels
	e.channels = nil
	e.closed = true
	e.mu.Unlock()
	var first error
	for _, c := range chans {
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
