package rdma

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Access flags for memory registration.
type Access uint32

const (
	// AccessLocalWrite permits local writes (always implied for recv).
	AccessLocalWrite Access = 1 << iota
	// AccessRemoteRead permits remote one-sided READ.
	AccessRemoteRead
	// AccessRemoteWrite permits remote one-sided WRITE.
	AccessRemoteWrite
)

// MR is a registered memory region. Because this is an in-process emulation
// and Go forbids racy slice access, all access to the region's bytes goes
// through ReadAt/WriteAt, which lock the region. This serialises "DMA" with
// application access — a stricter memory model than hardware, never a
// weaker one, so protocols that are correct here are correct on hardware.
//
// The bytes are backed lazily: buf covers the prefix of the region written
// so far and everything past it reads as zero. A 4 MiB ring is registered
// per connection, a cold start moves a few hundred kilobytes through it,
// and zeroing memory the connection has not reached yet was most of what
// dialing cost.
type MR struct {
	pd     *PD
	lkey   uint32
	rkey   uint32
	access Access
	size   int
	seq    uint64 // process-wide registration order; orders two-region locking

	mu  sync.Mutex
	buf []byte // the written prefix, grown by doubling up to size
}

// mrMinBacking is the smallest backing allocation.
const mrMinBacking = 64 << 10

// mrSeq numbers regions in registration order.
var mrSeq atomic.Uint64

// RegisterMemory registers length bytes under the protection domain and
// returns the MR. It corresponds to ibv_reg_mr; Whale registers one large
// region per connection and multiplexes it as a ring (paper §4) precisely
// to avoid calling this in the hot path.
func RegisterMemory(pd *PD, length int, access Access) (*MR, error) {
	if length <= 0 {
		return nil, fmt.Errorf("rdma: RegisterMemory length %d", length)
	}
	d := pd.dev
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil, fmt.Errorf("rdma: device %s closed", d.name)
	}
	d.nextKey++
	mr := &MR{
		pd:     pd,
		lkey:   d.nextKey,
		rkey:   d.nextKey,
		access: access,
		size:   length,
		seq:    mrSeq.Add(1),
	}
	d.mrs[mr.rkey] = mr
	return mr, nil
}

// Deregister removes the region from the device. Outstanding operations
// that already resolved the MR still complete.
func (m *MR) Deregister() {
	d := m.pd.dev
	d.mu.Lock()
	delete(d.mrs, m.rkey)
	d.mu.Unlock()
}

// LKey returns the local key.
func (m *MR) LKey() uint32 { return m.lkey }

// RKey returns the remote key to hand to peers.
func (m *MR) RKey() uint32 { return m.rkey }

// Len returns the region's size in bytes.
func (m *MR) Len() int { return m.size }

// ReadAt copies from the region into p, returning an error on out-of-bounds
// access (the emulated equivalent of a local protection fault).
func (m *MR) ReadAt(p []byte, off int) error {
	if off < 0 || off+len(p) > m.size {
		return fmt.Errorf("rdma: MR read [%d,%d) out of bounds (len %d)", off, off+len(p), m.size)
	}
	n := 0
	m.mu.Lock()
	if off < len(m.buf) {
		n = copy(p, m.buf[off:])
	}
	m.mu.Unlock()
	clear(p[n:])
	return nil
}

// WriteAt copies p into the region at off.
func (m *MR) WriteAt(p []byte, off int) error {
	if off < 0 || off+len(p) > m.size {
		return fmt.Errorf("rdma: MR write [%d,%d) out of bounds (len %d)", off, off+len(p), m.size)
	}
	m.mu.Lock()
	m.back(off + len(p))
	copy(m.buf[off:], p)
	m.mu.Unlock()
	return nil
}

// back grows the written prefix to cover [0, end); callers hold m.mu.
func (m *MR) back(end int) {
	if end <= len(m.buf) {
		return
	}
	n := max(end, 2*len(m.buf), mrMinBacking)
	grown := make([]byte, min(n, m.size))
	copy(grown, m.buf)
	m.buf = grown
}

// remoteReadInto serves a one-sided READ of [off, off+n) against this
// region straight into dst at dstOff — the RNIC's DMA, region to region,
// with no buffer in between: remote-read access and ReadAt's bounds on this
// side, WriteAt's bounds on dst.
func (m *MR) remoteReadInto(dst *MR, dstOff, off, n int) error {
	if m.access&AccessRemoteRead == 0 {
		return fmt.Errorf("rdma: MR rkey %d not registered for remote read", m.rkey)
	}
	if off < 0 || n < 0 || off+n > m.size {
		return fmt.Errorf("rdma: MR read [%d,%d) out of bounds (len %d)", off, off+n, m.size)
	}
	if dstOff < 0 || dstOff+n > dst.size {
		return fmt.Errorf("rdma: MR write [%d,%d) out of bounds (len %d)", dstOff, dstOff+n, dst.size)
	}
	// Both regions stay locked for the copy, taken in registration order so
	// that two READs crossing each other cannot deadlock.
	first, second := m, dst
	if second.seq < first.seq {
		first, second = second, first
	}
	first.mu.Lock()
	if second != first {
		//lint:ignore lockorder same lock class on two instances, ordered by registration sequence above
		second.mu.Lock()
	}
	dst.back(dstOff + n)
	sink := dst.buf[dstOff : dstOff+n]
	k := 0
	if off < len(m.buf) {
		k = copy(sink, m.buf[off:])
	}
	clear(sink[k:])
	if second != first {
		second.mu.Unlock()
	}
	first.mu.Unlock()
	return nil
}

// remoteWrite serves a one-sided WRITE against this region.
func (m *MR) remoteWrite(p []byte, off int) error {
	if m.access&AccessRemoteWrite == 0 {
		return fmt.Errorf("rdma: MR rkey %d not registered for remote write", m.rkey)
	}
	return m.WriteAt(p, off)
}
