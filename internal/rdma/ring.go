package rdma

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"

	"whale/internal/tuple"
)

// Ring layout constants: the first 16 bytes of the region are control words
// (head and tail cumulative byte counters), the rest is the data area.
const (
	ringHeadOff = 0
	ringTailOff = 8
	ringDataOff = 16
)

// ErrRingFull is returned when a frame does not fit in the ring's free
// space. The caller's transfer queue is expected to hold the tuple and
// retry — this is precisely the "transfer queue blocking" condition the
// paper's non-blocking tree is designed to avoid.
var ErrRingFull = fmt.Errorf("rdma: ring full")

// Ring is the producer-side view of Whale's ring memory region (paper §4):
// a single registered region reused for every message, so the RNIC's memory
// is registered once and multiplexed instead of per-message. The head
// counter (written by the producer) and tail counter (written by the
// consumer, possibly via one-sided WRITE from the remote side) live in the
// first 16 bytes of the same MR so a remote peer can READ/WRITE them.
type Ring struct {
	mr   *MR
	size int // data area size
	// head and tail are atomics: the producer (Append, serialised by the
	// owning channel's flush semaphore) advances them while Occupancy is
	// read from whichever goroutine asks for the channel's pressure.
	head atomic.Uint64
	tail atomic.Uint64 // producer's cached view; authoritative value is in the MR
	// bufs hands LocalConsume its receive buffers; the consumer's alone.
	bufs tuple.Slab
}

// NewRing wraps an MR as a ring. The MR must be at least 64 bytes.
func NewRing(mr *MR) (*Ring, error) {
	if mr.Len() < 64 {
		return nil, fmt.Errorf("rdma: MR too small for a ring (%d bytes)", mr.Len())
	}
	r := &Ring{mr: mr, size: mr.Len() - ringDataOff}
	// Zero the control words.
	var zero [16]byte
	if err := mr.WriteAt(zero[:], 0); err != nil {
		return nil, err
	}
	return r, nil
}

// MR returns the underlying region (to export its rkey).
func (r *Ring) MR() *MR { return r.mr }

// DataSize returns the usable data-area size.
func (r *Ring) DataSize() int { return r.size }

// refreshTail re-reads the tail counter, which the consumer advances. The
// cached copy only moves forward: a reader that read an older tail and
// stores it late must not take back the room a flusher has just seen, for
// the flusher would then wait for a tail feedback that never comes.
func (r *Ring) refreshTail() error {
	var b [8]byte
	if err := r.mr.ReadAt(b[:], ringTailOff); err != nil {
		return err
	}
	tail := binary.LittleEndian.Uint64(b[:])
	for {
		old := r.tail.Load()
		if old >= tail || r.tail.CompareAndSwap(old, tail) {
			return nil
		}
	}
}

// Occupancy returns the bytes currently published but not yet known to be
// consumed, from the producer's cached view of the tail (an upper bound:
// the consumer may have advanced further). Safe to call concurrently with
// the producer.
func (r *Ring) Occupancy() int {
	// A failed refresh leaves the cached tail, which is still a valid
	// upper bound on occupancy. Head is read first: the tail only grows
	// towards it, so the difference never goes negative.
	head := r.head.Load()
	_ = r.refreshTail()
	if tail := r.tail.Load(); tail < head {
		return int(head - tail)
	}
	return 0
}

// Free returns the bytes currently available for appending.
func (r *Ring) Free() (int, error) {
	if err := r.refreshTail(); err != nil {
		return 0, err
	}
	return r.size - int(r.head.Load()-r.tail.Load()), nil
}

// Append writes one length-prefixed frame into the ring and publishes it by
// advancing the head counter. It returns ErrRingFull when the frame does
// not fit. Publishing after the data write means a concurrent reader never
// observes a partial frame.
//
//whale:hotpath
func (r *Ring) Append(frame []byte) error {
	need := 4 + len(frame)
	if need > r.size {
		return fmt.Errorf("rdma: frame of %d bytes exceeds ring data size %d", len(frame), r.size)
	}
	free, err := r.Free()
	if err != nil {
		return err
	}
	if need > free {
		return ErrRingFull
	}
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(frame)))
	head := r.head.Load()
	if err := r.writeWrapped(head, hdr[:]); err != nil {
		return err
	}
	if err := r.writeWrapped(head+4, frame); err != nil {
		return err
	}
	head += uint64(need)
	r.head.Store(head)
	var hb [8]byte
	binary.LittleEndian.PutUint64(hb[:], head)
	return r.mr.WriteAt(hb[:], ringHeadOff)
}

// writeWrapped writes p at the cumulative position pos, wrapping around the
// data area.
func (r *Ring) writeWrapped(pos uint64, p []byte) error {
	off := int(pos % uint64(r.size))
	n := len(p)
	if off+n <= r.size {
		return r.mr.WriteAt(p, ringDataOff+off)
	}
	first := r.size - off
	if err := r.mr.WriteAt(p[:first], ringDataOff+off); err != nil {
		return err
	}
	return r.mr.WriteAt(p[first:], ringDataOff)
}

// LocalConsume reads all complete frames currently published (for the
// one-sided WRITE mode, where the consumer owns the ring and reads it with
// plain local access), advances the tail, and invokes fn per frame. The
// published range is copied out of the region once, into a buffer cut from
// the consumer's receive chunk; the frames handed to fn are sub-slices of
// that one buffer, which fn's callee owns from then on.
func (r *Ring) LocalConsume(fn func(frame []byte)) (int, error) {
	var hb [8]byte
	if err := r.mr.ReadAt(hb[:], ringHeadOff); err != nil {
		return 0, err
	}
	head := binary.LittleEndian.Uint64(hb[:])
	tail := r.tail.Load()
	if head == tail {
		return 0, nil
	}
	if head < tail || head-tail > uint64(r.size) {
		return 0, fmt.Errorf("rdma: ring corrupt (head=%d tail=%d)", head, tail)
	}
	buf := r.bufs.Buf(int(head - tail))
	if err := r.readWrapped(tail, buf); err != nil {
		return 0, err
	}
	count, err := eachFrame(buf, fn)
	if err != nil {
		return count, err
	}
	r.tail.Store(head)
	var tb [8]byte
	binary.LittleEndian.PutUint64(tb[:], head)
	if err := r.mr.WriteAt(tb[:], ringTailOff); err != nil {
		return count, err
	}
	return count, nil
}

// eachFrame walks the length-prefixed frames of one published range and
// hands each to fn as a sub-slice of buf (capacity clipped, so an append by
// the callee cannot run into the next frame).
func eachFrame(buf []byte, fn func(frame []byte)) (int, error) {
	count := 0
	for off := 0; off < len(buf); count++ {
		if len(buf)-off < 4 {
			return count, fmt.Errorf("rdma: truncated frame header in published range")
		}
		n := int(binary.LittleEndian.Uint32(buf[off:]))
		off += 4
		if n > len(buf)-off {
			return count, fmt.Errorf("rdma: frame of %d bytes overruns published range", n)
		}
		fn(buf[off : off+n : off+n])
		off += n
	}
	return count, nil
}

// readWrapped reads into p from cumulative position pos.
func (r *Ring) readWrapped(pos uint64, p []byte) error {
	off := int(pos % uint64(r.size))
	n := len(p)
	if off+n <= r.size {
		return r.mr.ReadAt(p, ringDataOff+off)
	}
	first := r.size - off
	if err := r.mr.ReadAt(p[:first], ringDataOff+off); err != nil {
		return err
	}
	return r.mr.ReadAt(p[first:], ringDataOff)
}

// RemoteRing is the consumer-side view of a peer's ring region, accessed
// purely with one-sided READ (data and head) and WRITE (tail feedback), so
// the producer's CPU is never involved in the transfer — the property the
// paper exploits for the multicast data path.
type RemoteRing struct {
	qp       *QP
	stage    *MR // local staging buffer for READ results
	rkey     uint32
	dataSize int
	tail     uint64
	wrid     uint64
	tailBuf  [8]byte    // tail-feedback scratch; valid per poll (its WRITE is waited for)
	bufs     tuple.Slab // the polls' receive buffers
}

// NewRemoteRing prepares a consumer for the remote ring behind rkey with
// the given data-area size. stage must be a local MR at least as large as
// the remote data area.
func NewRemoteRing(qp *QP, stage *MR, rkey uint32, dataSize int) (*RemoteRing, error) {
	if stage.Len() < dataSize {
		return nil, fmt.Errorf("rdma: staging MR %d bytes < remote data area %d", stage.Len(), dataSize)
	}
	return &RemoteRing{qp: qp, stage: stage, rkey: rkey, dataSize: dataSize}, nil
}

// readRemote issues a one-sided READ of [off, off+n) in the remote MR into
// the staging MR at stageOff and waits for its completion on the QP's send
// CQ. The channel owns the CQ, so no other requests race with it.
func (rr *RemoteRing) readRemote(stageOff, off, n int, cq *CQ) error {
	rr.wrid++
	err := rr.qp.PostSend(WR{
		WRID:   rr.wrid,
		Op:     OpRead,
		Local:  SGE{MR: rr.stage, Offset: stageOff, Length: n},
		Remote: RemoteAddr{RKey: rr.rkey, Offset: off},
	})
	if err != nil {
		return err
	}
	wc, ok := cq.Wait(blockTimeout)
	if !ok {
		return fmt.Errorf("rdma: READ completion timed out")
	}
	if wc.Status != StatusOK {
		return fmt.Errorf("rdma: READ failed: %v (%v)", wc.Status, wc.Err)
	}
	return nil
}

// Poll fetches any newly published frames from the remote ring, invoking fn
// for each, and writes the tail feedback back to the producer. It returns
// the number of frames consumed. cq is the consumer-owned send CQ. The
// frames alias one buffer per poll (none when nothing was published), which
// passes to fn's callee. The buffer is cut from a receive chunk the ring
// allocates and then forgets (tuple.Slab.Buf), so a run of small polls
// costs one allocation per chunk, not one per poll, and a retained frame
// pins its chunk until it is dropped.
func (rr *RemoteRing) Poll(cq *CQ, fn func(frame []byte)) (int, error) {
	// Read the remote head counter.
	if err := rr.readRemote(0, ringHeadOff, 8, cq); err != nil {
		return 0, err
	}
	var hb [8]byte
	if err := rr.stage.ReadAt(hb[:], 0); err != nil {
		return 0, err
	}
	head := binary.LittleEndian.Uint64(hb[:])
	if head == rr.tail {
		return 0, nil
	}
	if head < rr.tail || head-rr.tail > uint64(rr.dataSize) {
		return 0, fmt.Errorf("rdma: remote ring corrupt (head=%d tail=%d)", head, rr.tail)
	}
	// Read the newly published byte range (up to two segments on wrap) into
	// the staging MR at offset 16 (mirroring the remote layout keeps offset
	// arithmetic identical).
	newBytes := int(head - rr.tail)
	start := int(rr.tail % uint64(rr.dataSize))
	if start+newBytes <= rr.dataSize {
		if err := rr.readRemote(ringDataOff+start, ringDataOff+start, newBytes, cq); err != nil {
			return 0, err
		}
	} else {
		first := rr.dataSize - start
		if err := rr.readRemote(ringDataOff+start, ringDataOff+start, first, cq); err != nil {
			return 0, err
		}
		if err := rr.readRemote(ringDataOff, ringDataOff, newBytes-first, cq); err != nil {
			return 0, err
		}
	}
	// Copy the staged range out once — linearised across the wrap — and
	// hand the frames out as sub-slices of that buffer, however many frames
	// it found. The callee owns the buffer.
	buf := rr.bufs.Buf(newBytes)
	if err := rr.stageRead(rr.tail, buf); err != nil {
		return 0, err
	}
	count, err := eachFrame(buf, fn)
	if err != nil {
		return count, err
	}
	rr.tail = head
	// One-sided WRITE of the tail feedback into the producer's ring.
	binary.LittleEndian.PutUint64(rr.tailBuf[:], rr.tail)
	rr.wrid++
	if err := rr.qp.PostSend(WR{
		WRID:   rr.wrid,
		Op:     OpWrite,
		Inline: rr.tailBuf[:],
		Remote: RemoteAddr{RKey: rr.rkey, Offset: ringTailOff},
	}); err != nil {
		return count, err
	}
	wc, ok := cq.Wait(blockTimeout)
	if !ok || wc.Status != StatusOK {
		return count, fmt.Errorf("rdma: tail WRITE failed: %+v", wc)
	}
	return count, nil
}

// stageRead reads from the staging MR using ring-wrapped addressing.
func (rr *RemoteRing) stageRead(pos uint64, p []byte) error {
	off := int(pos % uint64(rr.dataSize))
	if off+len(p) <= rr.dataSize {
		return rr.stage.ReadAt(p, ringDataOff+off)
	}
	first := rr.dataSize - off
	if err := rr.stage.ReadAt(p[:first], ringDataOff+off); err != nil {
		return err
	}
	return rr.stage.ReadAt(p[first:], ringDataOff)
}
