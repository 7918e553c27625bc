package rdma

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"whale/internal/metrics"
	"whale/internal/tuple"
)

// Fixed sizes and bounds: nothing sets them.
const (
	// blockTimeout bounds every wait on the other side — a completion, room
	// in a full ring or send window, the drain at Close. A healthy channel
	// never reaches it: it turns a wedged peer into an error, not a hang.
	blockTimeout = 10 * time.Second
	// qpDepth bounds a channel's in-flight work requests; it is also the
	// number of two-sided receive slots.
	qpDepth = 128
)

// Mode selects the verbs used for a channel's data path. The paper (§4,
// Figs. 29-32) finds one-sided READ best for the multicast data path and
// uses two-sided SEND/RECV for control messages; all three are implemented
// so the Whale_DiffVerbs experiments can compare them.
type Mode int

const (
	// ModeOneSidedRead: the sender appends to its own ring region; the
	// receiver pulls with one-sided READ and pushes tail feedback with
	// one-sided WRITE. The sender's CPU never touches the transfer.
	ModeOneSidedRead Mode = iota
	// ModeTwoSided: classic SEND/RECV with pre-posted receive buffers.
	ModeTwoSided
	// ModeOneSidedWrite: the sender pushes into the receiver's ring region
	// with one-sided WRITE; the receiver consumes locally.
	ModeOneSidedWrite
)

func (m Mode) String() string {
	switch m {
	case ModeOneSidedRead:
		return "one-sided-read"
	case ModeTwoSided:
		return "two-sided"
	case ModeOneSidedWrite:
		return "one-sided-write"
	}
	return fmt.Sprintf("mode(%d)", int(m))
}

// FlushReason labels what triggered a batch flush.
type FlushReason int

const (
	// FlushMMS: the pending batch reached the Max Memory Size.
	FlushMMS FlushReason = iota
	// FlushExplicit: Flush or Close forced the batch out.
	FlushExplicit
	// FlushIdle: the link was free — no flusher at work and nothing of the
	// channel's still on its way to the receiver — so the batch left at
	// once: on the Send that opened it, or the moment the transfer ahead of
	// it finished.
	FlushIdle
)

func (r FlushReason) String() string {
	switch r {
	case FlushMMS:
		return "mms"
	case FlushExplicit:
		return "explicit"
	case FlushIdle:
		return "idle"
	}
	return fmt.Sprintf("flush(%d)", int(r))
}

// ChannelConfig parameterises a Channel.
type ChannelConfig struct {
	// Mode selects the data-path verbs (default one-sided READ).
	Mode Mode
	// MMS is the Max Memory Size: a batch that reaches this size is closed
	// and shipped whatever the link is doing, the sender waiting out a full
	// ring if it has to (paper §4; default 256 KiB, the paper's chosen
	// operating point from Fig. 11). It is the only bound on a batch: one
	// that stays below it leaves the moment the link is free (see Channel).
	MMS int
	// RingSize is the ring region size (default 4 MiB).
	RingSize int
	// OnFlush, if set, is invoked after every batch flush with the trigger
	// and the batch size in bytes. Calls are serialised — one flush is in
	// flight at a time, in batch order — but no channel lock is held; the
	// callback must still be fast and must not call back into the channel
	// (a re-entrant flush would deadlock on the flush semaphore). The
	// observability layer uses it to count flushes by reason and log
	// flush-reason transitions.
	OnFlush func(reason FlushReason, batchBytes int)
}

func (c ChannelConfig) withDefaults() ChannelConfig {
	if c.MMS <= 0 {
		c.MMS = 256 << 10
	}
	if c.RingSize <= 0 {
		c.RingSize = 4 << 20
	}
	return c
}

// ChannelStats counts a channel's activity (all fields atomic).
type ChannelStats struct {
	MsgsSent     atomic.Int64
	BytesSent    atomic.Int64
	WorkRequests atomic.Int64 // flushes that became ring appends / sends / writes
	SizeFlushes  atomic.Int64 // flushes triggered by MMS
	IdleFlushes  atomic.Int64 // flushes that left because the link was free
	MsgsRecv     atomic.Int64
	BytesRecv    atomic.Int64
	BlockedNS    atomic.Int64 // time flushers spent waiting for room (full ring, exhausted send window)
	CQPollNS     atomic.Int64 // receiver time inside CQ/ring poll calls, sampled (recvLoopRead)
	CQPolls      atomic.Int64 // receiver poll calls issued
	WRDepthSum   atomic.Int64 // work requests per pipelined flush, summed
	WRFlushes    atomic.Int64 // pipelined flushes (WRDepthSum / WRFlushes = mean depth)
}

// StatsSnapshot is a point-in-time copy of ChannelStats.
type StatsSnapshot struct {
	MsgsSent, BytesSent, WorkRequests int64
	SizeFlushes, IdleFlushes          int64
	MsgsRecv, BytesRecv, BlockedNS    int64
	CQPollNS, CQPolls                 int64
	WRDepthSum, WRFlushes             int64
}

// Add accumulates o into s, field by field.
func (s *StatsSnapshot) Add(o StatsSnapshot) {
	s.MsgsSent += o.MsgsSent
	s.BytesSent += o.BytesSent
	s.WorkRequests += o.WorkRequests
	s.SizeFlushes += o.SizeFlushes
	s.IdleFlushes += o.IdleFlushes
	s.MsgsRecv += o.MsgsRecv
	s.BytesRecv += o.BytesRecv
	s.BlockedNS += o.BlockedNS
	s.CQPollNS += o.CQPollNS
	s.CQPolls += o.CQPolls
	s.WRDepthSum += o.WRDepthSum
	s.WRFlushes += o.WRFlushes
}

// Channel is a unidirectional, reliable, ordered message channel between
// two devices. The dialing side sends; the accepting side receives.
//
// Batching is opportunistic and reads no clock. Send appends to the pending
// batch and ships it at once if the link is free: no flusher at work and
// nothing of the channel's still on its way to the receiver (READ and WRITE
// modes: the receiver's tail has reached the head; two-sided: no SEND
// uncompleted). Otherwise the batch stays pending, growing with every Send,
// until the transfer ahead of it finishes — whichever goroutine sees that
// happen (the receive loop after its tail feedback, the completion reaper)
// ships what accumulated — so batches vanish on an idle link and grow under
// load. Whale's stream slicing survives as MMS, which closes a full batch
// whatever the link is doing; the paper's wait-time limit is subsumed by the
// link-free rule, and shipIfFree says why no batch is left behind.
type Channel struct {
	cfg    ChannelConfig
	local  string
	remote string
	stats  ChannelStats

	// bell and room are the doorbells the two halves share (capacity 1,
	// rung without blocking: a ring nobody has taken yet says all a second
	// one would). The sender rings bell after publishing a new head, and
	// the idle receiver parks on it. The receiver rings room after its tail
	// feedback lands (two-sided: the reaper, after it frees a window slot),
	// and a sender waiting for space, or for the receiver to drain, parks on
	// it. peer is the other half.
	bell chan struct{}
	room chan struct{}
	peer *Channel

	// Sender state. mu guards the pending batch and the closed/error
	// latches and is never held across a blocking operation. flushSem
	// (cap 1) serialises flushers instead: the batch is detached under mu,
	// but the potentially long waits — full ring, exhausted send window —
	// happen with no mutex held, so waiting there is backpressure, not
	// lock contention.
	mu         sync.Mutex
	pending    []byte
	spare      []byte // recycled batch buffer (one-sided modes)
	sendErr    error
	closed     bool
	flushSem   chan struct{} // cap 1: holder is the flushing goroutine
	ring       *Ring         // one-sided-read: local; one-sided-write: nil
	sqp        *QP           // sender QP (two-sided and one-sided-write)
	scq        *CQ
	inflight   chan struct{} // two-sided flow control
	remoteRing remoteWriterState

	// Receiver state.
	handler   atomic.Pointer[func(msg []byte)]
	rqp       *QP
	rcq       *CQ // receiver-owned CQ (send CQ for the one-sided modes, recv CQ for two-sided)
	rring     *RemoteRing
	localRing *Ring      // one-sided-write mode: receiver-owned ring
	tailTo    RemoteAddr // one-sided-write mode: the sender's tail-feedback word
	tailBuf   [8]byte    // tail-feedback scratch; valid per push (its WRITE is waited for)
	slots     *MR        // two-sided receive slots
	slotSize  int
	nslots    int
	recvErr   error // first malformed batch; owned by the receive loop
	done      chan struct{}
	wg        sync.WaitGroup
	closeOnce sync.Once
}

// remoteWriterState is the sender-side bookkeeping for one-sided-write
// mode: a cursor into the receiver's ring region. Only the flushing
// goroutine (serialised by flushSem) mutates it; head is atomic so
// RingOccupancy can read the cursor without joining that serialisation.
type remoteWriterState struct {
	rkey     uint32
	dataSize int
	head     atomic.Uint64
	feedback *MR     // 8 bytes the receiver WRITEs its tail into after every consume
	hdr      [4]byte // frame-length scratch; valid per flush (flushSem serialises)
	headBuf  [8]byte // head-publish scratch; valid per flush (flushSem serialises)
	wrs      []WR    // work-request scratch reused across flushes
}

// tail returns the receiver's tail as last fed back.
func (st *remoteWriterState) tail() uint64 {
	var tb [8]byte
	// The region is eight bytes long by construction; the read cannot fail.
	_ = st.feedback.ReadAt(tb[:], 0)
	return binary.LittleEndian.Uint64(tb[:])
}

// Stats returns a snapshot of the channel's counters.
func (c *Channel) Stats() StatsSnapshot {
	return StatsSnapshot{
		MsgsSent:     c.stats.MsgsSent.Load(),
		BytesSent:    c.stats.BytesSent.Load(),
		WorkRequests: c.stats.WorkRequests.Load(),
		SizeFlushes:  c.stats.SizeFlushes.Load(),
		IdleFlushes:  c.stats.IdleFlushes.Load(),
		MsgsRecv:     c.stats.MsgsRecv.Load(),
		BytesRecv:    c.stats.BytesRecv.Load(),
		BlockedNS:    c.stats.BlockedNS.Load(),
		CQPollNS:     c.stats.CQPollNS.Load(),
		CQPolls:      c.stats.CQPolls.Load(),
		WRDepthSum:   c.stats.WRDepthSum.Load(),
		WRFlushes:    c.stats.WRFlushes.Load(),
	}
}

// inTransit returns the bytes the sender has published that the receiver
// has not yet consumed, as far as the sender can tell without asking (both
// ring modes have the receiver push its tail to the sender). Zero for the
// two-sided mode, which has no ring.
func (c *Channel) inTransit() int {
	switch st := &c.remoteRing; {
	case c.ring != nil:
		return c.ring.Occupancy()
	case st.feedback != nil:
		// Head first: the tail only grows towards it.
		if head, tail := st.head.Load(), st.tail(); tail < head {
			return int(head - tail)
		}
	}
	return 0
}

// RingOccupancy returns the bytes sitting in the channel's ring region
// (published by the sender, not yet consumed by the receiver), plus the
// pending unflushed batch. The two-sided mode has no ring and reports the
// pending batch alone.
func (c *Channel) RingOccupancy() int {
	c.mu.Lock()
	pending := len(c.pending)
	c.mu.Unlock()
	return pending + c.inTransit()
}

// PressurePct reports the channel's ring occupancy (pending batch plus
// published-but-unconsumed bytes) as a percentage of the ring size, clamped
// to [0, 100]. The engine's flow controller feeds it into the waterline
// state machine.
func (c *Channel) PressurePct() int {
	occ := c.RingOccupancy()
	if occ <= 0 {
		return 0
	}
	pct := occ * 100 / c.cfg.RingSize
	if pct > 100 {
		pct = 100
	}
	return pct
}

// SetHandler installs the receive callback. It must be set (by the accept
// hook) before the sender starts sending; messages arriving with no handler
// are dropped.
func (c *Channel) SetHandler(fn func(msg []byte)) { c.handler.Store(&fn) }

func (c *Channel) deliver(msg []byte) {
	c.stats.MsgsRecv.Add(1)
	c.stats.BytesRecv.Add(int64(len(msg)))
	if fn := c.handler.Load(); fn != nil {
		(*fn)(msg)
	}
}

// Send enqueues one message. The message is copied into the pending batch,
// and the batch leaves with this call if the link is free or the message
// filled it to MMS; otherwise it leaves as soon as the link comes free.
// Send blocks only when the ring (or send window) is full — backpressure.
//
//whale:hotpath
func (c *Channel) Send(msg []byte) error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return fmt.Errorf("rdma: channel %s->%s closed", c.local, c.remote)
	}
	if err := c.sendErr; err != nil {
		c.mu.Unlock()
		return err
	}
	if len(c.pending) == 0 && c.spare != nil {
		// Reuse the batch buffer recycled by the previous flush.
		c.pending, c.spare = c.spare, nil
	}
	var lb [4]byte
	binary.LittleEndian.PutUint32(lb[:], uint32(len(msg)))
	c.pending = append(c.pending, lb[:]...)
	c.pending = append(c.pending, msg...)
	c.stats.MsgsSent.Add(1)
	c.stats.BytesSent.Add(int64(len(msg)))
	full := len(c.pending) >= c.cfg.MMS
	c.mu.Unlock()
	if full {
		return c.flush(FlushMMS)
	}
	_, err := c.shipIfFree()
	return err
}

// Flush forces the pending batch out.
func (c *Channel) Flush() error {
	return c.flush(FlushExplicit)
}

// caughtUp reports whether everything the sender shipped has reached the
// receiver: the rings are drained, no SEND is uncompleted.
func (c *Channel) caughtUp() bool {
	if c.cfg.Mode == ModeTwoSided {
		return len(c.inflight) == 0
	}
	return c.inTransit() == 0
}

// readyToShip reports whether a batch is pending that could leave at once:
// the receiver has caught up and the batch fits.
func (c *Channel) readyToShip() bool {
	c.mu.Lock()
	n := len(c.pending)
	c.mu.Unlock()
	return n > 0 && c.caughtUp() && c.fits(n)
}

// shipIfFree ships pending batches for as long as the link is free, and
// never waits: a goroutine that finds flushSem taken leaves the batch to the
// holder. Send calls it after every append, the goroutines that see a
// transfer finish call it through pull, and flush ends in it, so its loop
// is the one liveness rule of the channel — every holder of flushSem looks
// again after it lets go — and no message is left behind:
//
//   - a Send that finds the link busy appended before it looked, so the
//     end of the transfer it saw in progress comes after the append, and
//     the pull that follows that end finds the message;
//   - a Send that finds flushSem taken appended before it looked, so the
//     holder's look after it lets go finds the message, and ships it or
//     finds the link busy or the semaphore taken again: the case above or
//     this one, one holder later.
//
// It reports whether a batch went out.
func (c *Channel) shipIfFree() (shipped bool, err error) {
	for err == nil && c.readyToShip() {
		select {
		case c.flushSem <- struct{}{}:
		default:
			return shipped, nil
		}
		var ok bool
		ok, err = c.ship(FlushIdle, true)
		<-c.flushSem
		shipped = shipped || ok
	}
	return shipped, err
}

// pull is shipIfFree for the goroutines that watch transfers finish: the
// receive loops (on the sending half, their peer) once they have consumed
// everything and fed their tail back, and the two-sided completion reaper
// once nothing is in flight. Errors stay latched in sendErr for the next
// Send.
func (c *Channel) pull() bool {
	shipped, _ := c.shipIfFree()
	return shipped
}

// flush takes the link, waiting for it if need be, and ships pending
// batches until none is left: what senders appended while this flusher sat
// out a full ring leaves behind it as one batch. Then it lets go and looks
// again, as every holder does (see shipIfFree). Returns the latched send
// error when there is nothing to flush.
func (c *Channel) flush(reason FlushReason) error {
	c.flushSem <- struct{}{}
	var err error
	for shipped := true; shipped && err == nil; reason = FlushIdle {
		shipped, err = c.ship(reason, false)
	}
	<-c.flushSem
	if err == nil {
		c.pull()
	}
	return err
}

// fits reports whether a batch of n bytes can be shipped without waiting.
// Under flushSem only the receiver moves the answer, and only towards true;
// without it the answer is a hint that ship checks again.
func (c *Channel) fits(n int) bool {
	switch c.cfg.Mode {
	case ModeOneSidedRead:
		free, err := c.ring.Free()
		return err == nil && free >= 4+n
	case ModeOneSidedWrite:
		return c.remoteRing.dataSize-c.inTransit() >= 4+n
	}
	return len(c.inflight) < cap(c.inflight)
}

// ship detaches the pending batch under mu and sends it as one work
// request with no mutex held; the caller holds flushSem. With mustFit it
// leaves the batch where it is unless it can go without waiting. It reports
// whether a batch went out.
func (c *Channel) ship(reason FlushReason, mustFit bool) (bool, error) {
	c.mu.Lock()
	if mustFit && !c.fits(len(c.pending)) {
		c.mu.Unlock()
		return false, nil
	}
	batch := c.pending
	c.pending = nil
	err := c.sendErr
	c.mu.Unlock()
	if len(batch) == 0 || err != nil {
		return false, err
	}
	switch reason {
	case FlushMMS:
		c.stats.SizeFlushes.Add(1)
	case FlushIdle:
		c.stats.IdleFlushes.Add(1)
	}
	c.stats.WorkRequests.Add(1)
	if c.cfg.OnFlush != nil {
		c.cfg.OnFlush(reason, len(batch))
	}
	switch c.cfg.Mode {
	case ModeOneSidedRead:
		err = c.flushRing(batch)
	case ModeTwoSided:
		err = c.flushTwoSided(batch)
	case ModeOneSidedWrite:
		err = c.flushRemoteWrite(batch)
	}
	c.mu.Lock()
	if err != nil && c.sendErr == nil {
		c.sendErr = err
	}
	// The one-sided flushes complete synchronously (the batch is copied into
	// a memory region before they return), so the batch buffer can back the
	// next batch instead of being reallocated. Two-sided mode posts the batch
	// as an Inline work request that the RNIC engine consumes asynchronously:
	// ownership transfers with the WR and the buffer must not be reused.
	if err == nil && c.cfg.Mode != ModeTwoSided && c.spare == nil && cap(batch) <= 2*c.cfg.MMS {
		c.spare = batch[:0]
	}
	c.mu.Unlock()
	return err == nil, err
}

// ring rings a doorbell (bell or room) without blocking. A doorbell holds
// one ring: a second one before anybody looked says nothing new.
func ring(bell chan struct{}) {
	select {
	case bell <- struct{}{}:
	default:
	}
}

// awaitRoom parks until the receiver rings room, and fails if it does not
// within blockTimeout or the receiving half closes. A ring already there is
// taken without arming a timer; it may be stale, so callers look again at
// what they were waiting for.
func (c *Channel) awaitRoom() error {
	select {
	case <-c.room:
		return nil
	default:
	}
	t := waitTimers.get(blockTimeout)
	defer waitTimers.put(t)
	select {
	case <-c.room:
		return nil
	case <-c.peer.done:
		return fmt.Errorf("rdma: channel %s->%s: receiver closed", c.local, c.remote)
	case <-t.C:
		return fmt.Errorf("rdma: channel %s->%s: no room from the receiver for %v", c.local, c.remote, blockTimeout)
	}
}

// blocked is one wait of a flusher that found no room — a full ring, an
// exhausted send window — charged to BlockedNS.
func (c *Channel) blocked() error {
	t0 := time.Now()
	err := c.awaitRoom()
	c.stats.BlockedNS.Add(time.Since(t0).Nanoseconds())
	return err
}

// flushRing appends the batch to the local ring, parking on a full one, and
// rings the receiver.
func (c *Channel) flushRing(batch []byte) error {
	for {
		err := c.ring.Append(batch)
		if err == nil {
			ring(c.bell)
			return nil
		}
		if err != ErrRingFull {
			return err
		}
		if err := c.blocked(); err != nil {
			return err
		}
	}
}

// flushTwoSided posts the batch as one SEND, parking while the in-flight
// window is full; completions are reaped by the sender's reaper goroutine.
func (c *Channel) flushTwoSided(batch []byte) error {
	for {
		select {
		case c.inflight <- struct{}{}:
			err := c.sqp.PostSend(WR{Op: OpSend, Inline: batch})
			if err == nil {
				return nil
			}
			<-c.inflight
			if !errors.Is(err, ErrSQFull) {
				return err
			}
		default:
		}
		if err := c.blocked(); err != nil {
			return err
		}
	}
}

// flushRemoteWrite pushes the batch into the receiver's ring with one-sided
// WRITEs — data, then the head counter — and rings the receiver.
func (c *Channel) flushRemoteWrite(batch []byte) error {
	st := &c.remoteRing
	need := 4 + len(batch)
	if need > st.dataSize {
		return fmt.Errorf("rdma: batch of %d bytes exceeds remote ring size %d", len(batch), st.dataSize)
	}
	for !c.fits(len(batch)) {
		if err := c.blocked(); err != nil {
			return err
		}
	}
	head := st.head.Load()
	// Post the length header and the batch as separate pipelined WRITEs
	// instead of assembling an intermediate frame copy: pipelineOps reaps
	// every completion before returning, so the batch (and the header/head
	// scratch fields, reused across flushes under flushSem) stay valid for
	// the WRs' whole lifetime. RC executes work requests in order, so the
	// head can never be visible before the data.
	binary.LittleEndian.PutUint32(st.hdr[:], uint32(len(batch)))
	wrs := st.wrs[:0]
	off := int(head % uint64(st.dataSize))
	wrs, off = st.appendRingWrites(wrs, off, st.hdr[:])
	wrs, _ = st.appendRingWrites(wrs, off, batch)
	head += uint64(need)
	binary.LittleEndian.PutUint64(st.headBuf[:], head)
	st.head.Store(head)
	wrs = append(wrs, WR{Op: OpWrite, Inline: st.headBuf[:],
		Remote: RemoteAddr{RKey: st.rkey, Offset: ringHeadOff}})
	st.wrs = wrs[:0]
	if err := c.pipelineOps(wrs); err != nil {
		return err
	}
	ring(c.bell)
	return nil
}

// appendRingWrites splits one logical write of p at ring offset off into the
// WRITE work requests needed to honor the ring wrap, returning the extended
// WR list and the offset after the write.
func (st *remoteWriterState) appendRingWrites(wrs []WR, off int, p []byte) ([]WR, int) {
	for len(p) > 0 {
		n := st.dataSize - off
		if n > len(p) {
			n = len(p)
		}
		wrs = append(wrs, WR{Op: OpWrite, Inline: p[:n],
			Remote: RemoteAddr{RKey: st.rkey, Offset: ringDataOff + off}})
		p = p[n:]
		off = (off + n) % st.dataSize
	}
	return wrs, off
}

// pipelineOps posts a sequence of work requests back to back and reaps all
// their completions, failing on the first error.
func (c *Channel) pipelineOps(wrs []WR) error {
	c.stats.WRDepthSum.Add(int64(len(wrs)))
	c.stats.WRFlushes.Add(1)
	posted := 0
	for _, wr := range wrs {
		if err := c.sqp.PostSend(wr); err != nil {
			// Reap what was posted before reporting.
			for i := 0; i < posted; i++ {
				c.scq.Wait(blockTimeout)
			}
			return err
		}
		posted++
	}
	var firstErr error
	for i := 0; i < posted; i++ {
		wc, ok := c.scq.Wait(blockTimeout)
		if !ok && firstErr == nil {
			firstErr = fmt.Errorf("rdma: WRITE completion timed out")
			continue
		}
		if ok && wc.Status != StatusOK && firstErr == nil {
			firstErr = fmt.Errorf("rdma: WRITE failed: %v (%v)", wc.Status, wc.Err)
		}
	}
	return firstErr
}

// awaitDrained waits until the receiver has consumed everything shipped,
// or until it stops making room (see awaitRoom). The ring that ended the
// wait is passed on: a Send racing Close may have a flusher parked on room.
func (c *Channel) awaitDrained() {
	for !c.caughtUp() {
		if c.awaitRoom() != nil {
			return
		}
	}
	ring(c.room)
}

// Close flushes pending data, waits for the receiver to consume it, and
// stops the channel's goroutines.
func (c *Channel) Close() error {
	var err error
	c.closeOnce.Do(func() {
		c.mu.Lock()
		c.closed = true
		hadPending := len(c.pending) > 0
		c.mu.Unlock()
		if hadPending {
			// Final flush: closed is already set, so no sender can reopen
			// the batch behind it.
			err = c.flush(FlushExplicit)
		}
		// The last batch is delivered before the queue pairs go. (The
		// receiving half ships nothing and is always caught up.)
		ring(c.bell)
		c.awaitDrained()
		close(c.done)
		c.wg.Wait()
		if c.sqp != nil {
			c.sqp.Close()
		}
		if c.rqp != nil {
			c.rqp.Close()
		}
	})
	return err
}

// parseBatch splits a batch into messages and delivers each. Messages are
// delivered as sub-slices of batch rather than per-message copies: every
// receive loop hands parseBatch a freshly read buffer it never touches
// again, so ownership of the whole buffer — and with it each aliased message
// — transfers to the handler (a retained message pins its buffer until the
// handler drops it, which the GC handles).
func (c *Channel) parseBatch(batch []byte) error {
	_, err := eachFrame(batch, c.deliver)
	return err
}

// onFrame is the receive loops' per-frame callback: a frame is one batch.
// The first parse failure is kept in recvErr, which the loop checks after
// the poll.
func (c *Channel) onFrame(frame []byte) {
	if err := c.parseBatch(frame); err != nil && c.recvErr == nil {
		c.recvErr = err
	}
}

// awaitBell is the receive loops' idle step. They call it between polls:
// with park false it only takes a ring that is already there — the poll
// about to start sees whatever it announced — and with park true, after a
// poll that found nothing and a pull that shipped nothing, it sleeps until
// the next ring. A ring is lost to neither: the sender rings after it has
// published, the bell keeps one ring, and every ring taken is followed by
// a poll. It reports false once the channel is closed.
func (c *Channel) awaitBell(park bool) bool {
	if park {
		select {
		case <-c.bell:
			return true
		case <-c.done:
			return false
		}
	}
	select {
	case <-c.done:
		return false
	case <-c.bell:
	default:
	}
	return true
}

// recvLoopRead is the receiver goroutine for one-sided READ mode. One poll
// in metrics.SampleEvery is timed, adding SampleEvery times its duration to
// CQPollNS; CQPolls stays exact.
//
//whale:hotpath
func (c *Channel) recvLoopRead() {
	defer c.wg.Done()
	for park := false; c.awaitBell(park); {
		sampled := metrics.Sampled(c.stats.CQPolls.Add(1))
		t0 := metrics.Clock(sampled)
		n, err := c.rring.Poll(c.rcq, c.onFrame)
		if sampled {
			c.stats.CQPollNS.Add(metrics.SampleEvery * metrics.Since(t0).Nanoseconds())
		}
		if err != nil || c.recvErr != nil {
			// Transport-level failure: nothing to deliver to; stop.
			return
		}
		if n > 0 {
			// The poll's tail feedback has landed: the sender has room.
			ring(c.room)
		}
		// Park only after a poll that found nothing, and then only if the
		// sender holds nothing back: the tail feedback of the last frames
		// has landed, so the link is free for whatever is pending.
		park = n == 0 && !c.peer.pull()
	}
}

// recvLoopTwoSided reaps receive completions and reposts slots.
func (c *Channel) recvLoopTwoSided() {
	defer c.wg.Done()
	var bufs tuple.Slab
	for {
		wc, ok := c.rcq.next(c.done)
		if !ok {
			return
		}
		if wc.Status != StatusOK {
			continue // flush on teardown
		}
		slot := int(wc.WRID)
		buf := bufs.Buf(wc.Bytes)
		if err := c.slots.ReadAt(buf, slot*c.slotSize); err != nil {
			return
		}
		// Repost the slot before parsing so the window never starves.
		if err := c.rqp.PostRecv(WR{WRID: uint64(slot), Op: OpRecv,
			Local: SGE{MR: c.slots, Offset: slot * c.slotSize, Length: c.slotSize}}); err != nil {
			return
		}
		if err := c.parseBatch(buf); err != nil {
			return
		}
	}
}

// recvLoopLocalRing consumes the receiver-owned ring (one-sided WRITE mode)
// and feeds the tail back to the sender with a one-sided WRITE.
func (c *Channel) recvLoopLocalRing() {
	defer c.wg.Done()
	for park := false; c.awaitBell(park); {
		n, err := c.localRing.LocalConsume(c.onFrame)
		if err == nil && n > 0 {
			err = c.pushTail()
		}
		if err != nil || c.recvErr != nil {
			return
		}
		if n > 0 {
			ring(c.room)
		}
		park = n == 0 && !c.peer.pull()
	}
}

// pushTail WRITEs the local ring's tail into the sender's feedback word and
// waits for the completion: when it returns, the sender sees the space.
func (c *Channel) pushTail() error {
	binary.LittleEndian.PutUint64(c.tailBuf[:], c.localRing.tail.Load())
	if err := c.rqp.PostSend(WR{Op: OpWrite, Inline: c.tailBuf[:], Remote: c.tailTo}); err != nil {
		return err
	}
	wc, ok := c.rcq.Wait(blockTimeout)
	if !ok || wc.Status != StatusOK {
		return fmt.Errorf("rdma: tail WRITE failed: %+v", wc)
	}
	return nil
}

// senderReaper drains the sender's CQ in two-sided mode, releasing the
// in-flight window, ringing room and latching errors. The completion that
// empties the window frees the link: the reaper ships what senders left
// pending.
func (c *Channel) senderReaper() {
	defer c.wg.Done()
	for {
		wc, ok := c.scq.next(c.done)
		if !ok {
			return
		}
		<-c.inflight
		if wc.Status != StatusOK && wc.Status != StatusFlush {
			c.mu.Lock()
			if c.sendErr == nil {
				c.sendErr = fmt.Errorf("rdma: send failed: %v (%v)", wc.Status, wc.Err)
			}
			c.mu.Unlock()
		}
		ring(c.room)
		if len(c.inflight) == 0 {
			c.pull()
		}
	}
}
