// Package transport provides the worker-to-worker byte transport beneath
// the stream processing engine, with three interchangeable implementations:
//
//   - in-process channels (fast, for unit tests and examples),
//   - real TCP over loopback (the kernel network stack the paper's Storm
//     baseline pays for),
//   - the emulated RDMA verbs channel of internal/rdma (kernel-bypass, ring
//     memory region, MMS-bounded batching — the Whale data path).
//
// A Network wires up one Transport per worker; a Transport sends opaque
// payloads to peer workers and delivers inbound payloads to the handler
// registered at creation. Per-link ordering is guaranteed by every
// implementation; cross-link ordering is not.
package transport

import (
	"errors"
	"fmt"
	"sync/atomic"

	"whale/internal/metrics"
	"whale/internal/rdma"
)

// WorkerID identifies a worker process on the network.
type WorkerID = int32

// Handler consumes one inbound payload. Implementations invoke it from the
// transport's receive goroutine; handlers must not block indefinitely.
// Ownership of the payload slice transfers to the handler: every transport
// delivers a private copy (Send copies before enqueueing, the stream
// transports allocate per received frame), so the handler may retain or
// alias it beyond the call.
type Handler func(from WorkerID, payload []byte)

// Stats counts a transport's traffic. All fields are atomic.
type Stats struct {
	MsgsSent  atomic.Int64
	BytesSent atomic.Int64
	MsgsRecv  atomic.Int64
	BytesRecv atomic.Int64
	// SendNS estimates the wall time spent inside Send — the sender-side
	// CPU cost the paper's Fig. 25 "communication time" measures. One call
	// in metrics.SampleEvery is timed and adds SampleEvery times its
	// duration, so SendNS/MsgsSent is the mean send cost.
	SendNS atomic.Int64
	// SendErrs counts Send calls that returned an error (the message was
	// not handed to the wire). Failed sends contribute to SendNS but not
	// to MsgsSent/BytesSent.
	SendErrs atomic.Int64
	// sends counts Send calls: the sampling counter of SendNS.
	sends atomic.Int64
}

// Snapshot is a point-in-time copy of Stats.
type Snapshot struct {
	MsgsSent, BytesSent, MsgsRecv, BytesRecv, SendNS, SendErrs int64
}

// Load snapshots the counters.
func (s *Stats) Load() Snapshot {
	return Snapshot{
		MsgsSent:  s.MsgsSent.Load(),
		BytesSent: s.BytesSent.Load(),
		MsgsRecv:  s.MsgsRecv.Load(),
		BytesRecv: s.BytesRecv.Load(),
		SendNS:    s.SendNS.Load(),
		SendErrs:  s.SendErrs.Load(),
	}
}

// Transport is one worker's connection to the network.
type Transport interface {
	// Send delivers payload to the worker with id to. Safe for concurrent
	// use. The payload is copied before Send returns.
	Send(to WorkerID, payload []byte) error
	// Flush pushes out any batched data (a no-op for unbatched transports).
	Flush() error
	// Pressure reports the congestion toward worker to as a percentage of
	// the link's buffering capacity in [0, 100]: 0 means idle, 100 means the
	// outbound path (peer inbound queue, RDMA ring, ...) is full. Transports
	// without visible buffering return 0.
	Pressure(to WorkerID) int
	// Stats exposes the transport's counters.
	Stats() *Stats
	// Close releases the transport's resources.
	Close() error
}

// Network creates and connects Transports.
type Network interface {
	// Register attaches worker id with the given inbound handler and
	// returns its transport. Every worker must be registered before any
	// Send targets it.
	Register(id WorkerID, h Handler) (Transport, error)
	// Close shuts down all registered transports.
	Close() error
}

// timedSend wraps the body of a Send with stats accounting. The counts are
// exact; SendNS is sampled (metrics.SampleEvery over the transport's send
// calls), each timed call adding SampleEvery times its wall time.
//
//whale:hotpath
func timedSend(st *Stats, bytes int, fn func() error) error {
	sampled := metrics.Sampled(st.sends.Add(1))
	t0 := metrics.Clock(sampled)
	err := fn()
	if sampled {
		st.SendNS.Add(metrics.SampleEvery * metrics.Since(t0).Nanoseconds())
	}
	if err == nil {
		st.MsgsSent.Add(1)
		st.BytesSent.Add(int64(bytes))
	} else {
		st.SendErrs.Add(1)
	}
	return err
}

// Typed send-failure sentinels, wrapped by the implementations so retry
// logic can classify failures with errors.Is.
var (
	// ErrUnreachable marks a destination that cannot currently be reached
	// (dropped link, partition, crashed-but-unconfirmed peer). Transient
	// from the sender's point of view: a bounded retry may succeed.
	ErrUnreachable = errors.New("transport: unreachable")
	// ErrPeerClosed marks a destination that has shut down its transport.
	// Fatal: retrying cannot succeed until the peer re-registers.
	ErrPeerClosed = errors.New("transport: peer closed")
)

// IsTransient reports whether a Send error is worth a bounded retry —
// either explicit unreachability (fault injection, partitions) or
// backpressure from a full RDMA send queue. Unknown errors are treated as
// permanent so misconfigurations fail fast.
func IsTransient(err error) bool {
	return errors.Is(err, ErrUnreachable) || errors.Is(err, rdma.ErrSQFull) || errors.Is(err, rdma.ErrRQFull)
}

// ErrUnknownWorker is returned for sends to unregistered ids.
func errUnknownWorker(id WorkerID) error {
	return fmt.Errorf("transport: unknown worker %d", id)
}
