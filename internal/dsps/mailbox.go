package dsps

import (
	"sync"
	"sync/atomic"
)

// mailbox is the package's one queue: any goroutine puts, a single consumer
// takes everything put so far as one batch. It is unbounded, so put never
// blocks — the property every user needs (the transport handler must get
// back to control frames, the delivery loop to sibling executors, dispatch
// and executor goroutines to their own work whatever the monitor loop is
// doing); what bounds occupancy is stated where each mailbox is declared.
//
// Ordering rule: values are taken in put order, and a value counts as in
// the mailbox — in len — from its put until the consumer calls done for
// it, so Drain waits for a taken batch too.
type mailbox[T any] struct {
	mu  sync.Mutex
	q   []T // put appends here
	out []T // the batch last taken; recycled as q's backing array at the next take

	pending atomic.Int64  // put but not yet done
	kick    chan struct{} // cap 1: the consumer waits on it between takes
}

func newMailbox[T any]() *mailbox[T] {
	return &mailbox[T]{kick: make(chan struct{}, 1)}
}

// put appends v. Safe from any goroutine; never blocks.
func (m *mailbox[T]) put(v T) {
	m.mu.Lock()
	m.pending.Add(1) // before v is visible: len never under-reports
	m.q = append(m.q, v)
	m.mu.Unlock()
	signal(m.kick)
}

// take returns every value put since the previous take, in put order (nil
// when there is none). Consumer only. The batch is valid until the next
// take, which reuses its memory; the consumer calls done once per value as
// it finishes with it.
func (m *mailbox[T]) take() []T {
	clear(m.out) // drop the processed batch's references before reuse
	m.mu.Lock()
	m.out, m.q = m.q, m.out[:0]
	m.mu.Unlock()
	return m.out
}

// done retires one taken value.
func (m *mailbox[T]) done() { m.pending.Add(-1) }

// len counts the values put and not yet done.
func (m *mailbox[T]) len() int { return int(m.pending.Load()) }
