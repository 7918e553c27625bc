package rdma

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Typed sentinels for the verb posting paths, so callers (send retry
// loops in particular) can tell transient backpressure from fatal
// teardown with errors.Is. Each sentinel's text is the tail of the
// wrapped message, keeping the full error strings identical to the
// historical fmt.Errorf ones.
var (
	// ErrQPClosed: the queue pair was closed; posting can never succeed
	// again. Fatal.
	ErrQPClosed = errors.New("closed")
	// ErrSQFull: the send queue is at capacity. Transient backpressure —
	// retry after the RNIC drains.
	ErrSQFull = errors.New("send queue full")
	// ErrRQFull: the receive queue is at capacity. Transient.
	ErrRQFull = errors.New("receive queue full")
	// ErrNotConnected: the queue pair was never connected. Fatal until
	// ConnectPair runs.
	ErrNotConnected = errors.New("not connected")
)

// Opcode identifies the operation a work request performs.
type Opcode int

const (
	// OpSend is a two-sided send, consuming a posted receive at the peer.
	OpSend Opcode = iota
	// OpRecv completes when a peer's send lands in the posted buffer.
	OpRecv
	// OpWrite is a one-sided RDMA write into remote memory.
	OpWrite
	// OpRead is a one-sided RDMA read from remote memory.
	OpRead
)

func (o Opcode) String() string {
	switch o {
	case OpSend:
		return "SEND"
	case OpRecv:
		return "RECV"
	case OpWrite:
		return "WRITE"
	case OpRead:
		return "READ"
	}
	return fmt.Sprintf("op(%d)", int(o))
}

// Status of a completed work request.
type Status int

const (
	// StatusOK means success.
	StatusOK Status = iota
	// StatusRNR means the peer had no receive posted within the timeout.
	StatusRNR
	// StatusErr covers protection/addressing failures.
	StatusErr
	// StatusFlush means the QP was torn down with the request outstanding.
	StatusFlush
)

func (s Status) String() string {
	switch s {
	case StatusOK:
		return "OK"
	case StatusRNR:
		return "RNR"
	case StatusErr:
		return "ERR"
	case StatusFlush:
		return "FLUSH"
	}
	return fmt.Sprintf("status(%d)", int(s))
}

// WC is a work completion.
type WC struct {
	WRID   uint64
	Op     Opcode
	Status Status
	// Bytes transferred (for OpRecv, the received length).
	Bytes int
	// Err carries detail when Status != StatusOK.
	Err error
}

// CQ is a completion queue. Completions are delivered in generation order;
// Poll drains without blocking, Wait blocks for at least one.
type CQ struct {
	ch chan WC
}

// NewCQ creates a completion queue with the given depth. The RNIC engine
// blocks when the CQ is full (a real RNIC would raise a fatal overflow
// error; blocking gives backpressure instead, which is kinder in tests and
// documented behaviour here).
func NewCQ(depth int) *CQ {
	if depth < 1 {
		depth = 1
	}
	return &CQ{ch: make(chan WC, depth)}
}

// Poll drains up to max completions without blocking.
func (c *CQ) Poll(max int) []WC {
	var out []WC
	for len(out) < max {
		select {
		case wc := <-c.ch:
			out = append(out, wc)
		default:
			return out
		}
	}
	return out
}

// timerPool recycles the timers of the package's bounded waits: CQ.Wait, a
// SEND waiting for a receive buffer, a flusher waiting for room. Their
// bounds are seconds long and almost never fire; a time.After per wait
// leaves each of those timers live until it expires. Every such wait tries
// the non-blocking case first, so a timer is taken only by a wait that
// blocks; armed counts them.
type timerPool struct {
	pool  sync.Pool
	armed atomic.Int64
}

var waitTimers = timerPool{pool: sync.Pool{New: func() any {
	t := time.NewTimer(time.Hour)
	t.Stop()
	return t
}}}

// get takes a pooled timer and starts it.
func (p *timerPool) get(d time.Duration) *time.Timer {
	p.armed.Add(1)
	t := p.pool.Get().(*time.Timer)
	t.Reset(d)
	return t
}

// put stops t and pools it again with an empty channel.
func (p *timerPool) put(t *time.Timer) {
	if !t.Stop() {
		// It fired, and its tick may still be waiting: drain it.
		select {
		case <-t.C:
		default:
		}
	}
	p.pool.Put(t)
}

// Wait blocks until one completion arrives or the timeout elapses; ok is
// false on timeout. A completion that is already there is returned without
// arming a timer.
func (c *CQ) Wait(timeout time.Duration) (WC, bool) {
	select {
	case wc := <-c.ch:
		return wc, true
	default:
	}
	t := waitTimers.get(timeout)
	defer waitTimers.put(t)
	select {
	case wc := <-c.ch:
		return wc, true
	case <-t.C:
		return WC{}, false
	}
}

// next blocks until a completion arrives, or reports false once done is
// closed. It is the wait of a goroutine that owns the CQ for the life of a
// channel, which needs no timer: closing done is how it stops.
func (c *CQ) next(done <-chan struct{}) (WC, bool) {
	select {
	case wc := <-c.ch:
		return wc, true
	case <-done:
		return WC{}, false
	}
}

func (c *CQ) push(wc WC) { c.ch <- wc }

// SGE is a scatter/gather element referencing a slice of a local MR.
type SGE struct {
	MR     *MR
	Offset int
	Length int
}

// RemoteAddr names a window of a peer's registered memory.
type RemoteAddr struct {
	RKey   uint32
	Offset int
}

// WR is a work request.
type WR struct {
	WRID   uint64
	Op     Opcode
	Local  SGE        // local buffer (source for SEND/WRITE, sink for READ/RECV)
	Remote RemoteAddr // for one-sided ops
	// Inline carries payload by value for small SENDs (like IBV_SEND_INLINE);
	// when non-nil it takes precedence over Local.
	Inline []byte
}

// QP is a reliably-connected queue pair. Work requests post without
// blocking (up to the send-queue depth) and execute in order on the QP's
// engine goroutine, which is the emulated RNIC.
type QP struct {
	pd      *PD
	num     uint32
	sendCQ  *CQ
	recvCQ  *CQ
	sq      chan WR
	rq      chan WR // posted receives awaiting a peer SEND
	remote  *QP
	mu      sync.Mutex
	started bool
	closed  bool
	done    chan struct{}
}

// QPCap sets queue depths.
type QPCap struct {
	SendDepth int
	RecvDepth int
}

func (c QPCap) withDefaults() QPCap {
	if c.SendDepth <= 0 {
		c.SendDepth = 128
	}
	if c.RecvDepth <= 0 {
		c.RecvDepth = 128
	}
	return c
}

// CreateQP creates a queue pair under pd with separate send and receive
// completion queues.
func CreateQP(pd *PD, sendCQ, recvCQ *CQ, cap QPCap) *QP {
	cap = cap.withDefaults()
	d := pd.dev
	d.mu.Lock()
	d.nextQP++
	num := d.nextQP
	d.mu.Unlock()
	return &QP{
		pd:     pd,
		num:    num,
		sendCQ: sendCQ,
		recvCQ: recvCQ,
		sq:     make(chan WR, cap.SendDepth),
		rq:     make(chan WR, cap.RecvDepth),
		done:   make(chan struct{}),
	}
}

// Num returns the queue pair number (unique per device).
func (q *QP) Num() uint32 { return q.num }

// ConnectPair transitions two queue pairs into RTS connected to each other,
// emulating the out-of-band (e.g. TCP or CM) QP exchange. It starts both
// RNIC engines.
func ConnectPair(a, b *QP) error {
	// Acquire the two instance locks in QP-number order: two concurrent
	// ConnectPair calls with swapped arguments would otherwise deadlock on
	// the a/b pair (the classic two-account problem). lockorder cannot see
	// instance identity, so the ordered second acquisition is waived below.
	first, second := a, b
	if second.num < first.num {
		first, second = second, first
	}
	first.mu.Lock()
	defer first.mu.Unlock()
	if a != b {
		//lint:ignore lockorder same lock class on two instances, ordered by QP number above
		second.mu.Lock()
		defer second.mu.Unlock()
	}
	if a.remote != nil || b.remote != nil {
		return fmt.Errorf("rdma: QP already connected")
	}
	a.remote, b.remote = b, a
	a.start()
	b.start()
	return nil
}

// start launches the engine goroutine; callers hold q.mu.
func (q *QP) start() {
	if q.started {
		return
	}
	q.started = true
	//lint:ignore gospawn engine exits when done closes; joining it here could deadlock against an undrained CQ
	go q.engine()
}

// PostSend posts a work request to the send queue. It returns an error if
// the queue pair is not connected, closed, or the send queue is full — it
// never blocks, mirroring ibv_post_send.
func (q *QP) PostSend(wr WR) error {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return fmt.Errorf("rdma: QP %d %w", q.num, ErrQPClosed)
	}
	if q.remote == nil {
		q.mu.Unlock()
		return fmt.Errorf("rdma: QP %d %w", q.num, ErrNotConnected)
	}
	q.mu.Unlock()
	if wr.Inline == nil && wr.Local.MR != nil && wr.Local.MR.pd != q.pd {
		return fmt.Errorf("rdma: MR and QP protection domains differ")
	}
	select {
	case q.sq <- wr:
		return nil
	default:
		return fmt.Errorf("rdma: QP %d %w", q.num, ErrSQFull)
	}
}

// PostRecv posts a receive buffer. Like PostSend it never blocks.
func (q *QP) PostRecv(wr WR) error {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return fmt.Errorf("rdma: QP %d %w", q.num, ErrQPClosed)
	}
	q.mu.Unlock()
	if wr.Local.MR != nil && wr.Local.MR.pd != q.pd {
		return fmt.Errorf("rdma: MR and QP protection domains differ")
	}
	select {
	case q.rq <- wr:
		return nil
	default:
		return fmt.Errorf("rdma: QP %d %w", q.num, ErrRQFull)
	}
}

// Close tears the QP down, flushing outstanding requests.
func (q *QP) Close() {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return
	}
	q.closed = true
	close(q.done)
}

// engine is the emulated RNIC: it executes send-queue work requests in
// order, imposing the fabric cost model.
func (q *QP) engine() {
	cost := q.pd.dev.fabric.cost
	for {
		var wr WR
		select {
		case wr = <-q.sq:
		case <-q.done:
			q.flushSQ()
			q.flushRQ()
			return
		}
		if d := cost.transferDelay(q.wrLen(wr)); d > 0 {
			time.Sleep(d)
		}
		switch wr.Op {
		case OpSend:
			q.execSend(wr, cost)
		case OpWrite:
			q.execWrite(wr)
		case OpRead:
			q.execRead(wr)
		default:
			q.sendCQ.push(WC{WRID: wr.WRID, Op: wr.Op, Status: StatusErr,
				Err: fmt.Errorf("rdma: cannot post %v to send queue", wr.Op)})
		}
	}
}

func (q *QP) wrLen(wr WR) int {
	if wr.Inline != nil {
		return len(wr.Inline)
	}
	return wr.Local.Length
}

func (q *QP) flushSQ() {
	for {
		select {
		case wr := <-q.sq:
			q.sendCQ.push(WC{WRID: wr.WRID, Op: wr.Op, Status: StatusFlush})
		default:
			return
		}
	}
}

func (q *QP) flushRQ() {
	for {
		select {
		case recv := <-q.rq:
			q.recvCQ.push(WC{WRID: recv.WRID, Op: OpRecv, Status: StatusFlush})
		default:
			return
		}
	}
}

// payload materialises the source bytes of a SEND/WRITE work request.
func (q *QP) payload(wr WR) ([]byte, error) {
	if wr.Inline != nil {
		return wr.Inline, nil
	}
	if wr.Local.MR == nil {
		return nil, fmt.Errorf("rdma: WR %d has neither inline data nor an MR", wr.WRID)
	}
	buf := make([]byte, wr.Local.Length)
	if err := wr.Local.MR.ReadAt(buf, wr.Local.Offset); err != nil {
		return nil, err
	}
	return buf, nil
}

func (q *QP) execSend(wr WR, cost CostModel) {
	if d := cost.TwoSidedExtraDelay; d > 0 {
		time.Sleep(d)
	}
	data, err := q.payload(wr)
	if err != nil {
		q.sendCQ.push(WC{WRID: wr.WRID, Op: OpSend, Status: StatusErr, Err: err})
		return
	}
	peer := q.remote
	recv, st, err := q.takeRecv(cost.rnrTimeout())
	if st != StatusOK {
		q.sendCQ.push(WC{WRID: wr.WRID, Op: OpSend, Status: st, Err: err})
		return
	}
	if recv.Local.MR == nil || recv.Local.Length < len(data) {
		err := fmt.Errorf("rdma: receive buffer too small (%d < %d)", recv.Local.Length, len(data))
		q.sendCQ.push(WC{WRID: wr.WRID, Op: OpSend, Status: StatusErr, Err: err})
		peer.recvCQ.push(WC{WRID: recv.WRID, Op: OpRecv, Status: StatusErr, Err: err})
		return
	}
	if err := recv.Local.MR.WriteAt(data, recv.Local.Offset); err != nil {
		q.sendCQ.push(WC{WRID: wr.WRID, Op: OpSend, Status: StatusErr, Err: err})
		peer.recvCQ.push(WC{WRID: recv.WRID, Op: OpRecv, Status: StatusErr, Err: err})
		return
	}
	// Completing the peer's receive from the sender's engine keeps receive
	// completions in send order — the RC ordering guarantee.
	peer.recvCQ.push(WC{WRID: recv.WRID, Op: OpRecv, Status: StatusOK, Bytes: len(data)})
	q.sendCQ.push(WC{WRID: wr.WRID, Op: OpSend, Status: StatusOK, Bytes: len(data)})
}

// takeRecv takes the peer's next posted receive. One that is already there
// is taken without arming a timer; otherwise it waits up to the RNR timeout,
// or until either queue pair closes.
func (q *QP) takeRecv(rnr time.Duration) (WR, Status, error) {
	peer := q.remote
	select {
	case recv := <-peer.rq:
		return recv, StatusOK, nil
	default:
	}
	t := waitTimers.get(rnr)
	defer waitTimers.put(t)
	select {
	case recv := <-peer.rq:
		return recv, StatusOK, nil
	case <-t.C:
		return WR{}, StatusRNR, fmt.Errorf("rdma: peer QP %d receiver not ready", peer.num)
	case <-q.done:
		return WR{}, StatusFlush, nil
	case <-peer.done:
		return WR{}, StatusErr, fmt.Errorf("rdma: peer QP %d closed", peer.num)
	}
}

func (q *QP) execWrite(wr WR) {
	data, err := q.payload(wr)
	if err == nil {
		var mr *MR
		mr, err = q.remote.pd.dev.lookupMR(wr.Remote.RKey)
		if err == nil {
			err = mr.remoteWrite(data, wr.Remote.Offset)
		}
	}
	st := StatusOK
	if err != nil {
		st = StatusErr
	}
	q.sendCQ.push(WC{WRID: wr.WRID, Op: OpWrite, Status: st, Bytes: len(data), Err: err})
}

func (q *QP) execRead(wr WR) {
	var err error
	n := 0
	if wr.Local.MR == nil {
		err = fmt.Errorf("rdma: READ WR %d has no local MR", wr.WRID)
	} else {
		var mr *MR
		mr, err = q.remote.pd.dev.lookupMR(wr.Remote.RKey)
		if err == nil {
			err = mr.remoteReadInto(wr.Local.MR, wr.Local.Offset, wr.Remote.Offset, wr.Local.Length)
		}
		if err == nil {
			n = wr.Local.Length
		}
	}
	st := StatusOK
	if err != nil {
		st = StatusErr
	}
	q.sendCQ.push(WC{WRID: wr.WRID, Op: OpRead, Status: st, Bytes: n, Err: err})
}
