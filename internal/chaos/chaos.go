// Package chaos provides a deterministic, seed-driven fault-injecting
// wrapper around any transport.Network — in-process channels, loopback TCP,
// or the emulated RDMA fabric. It injects the failures a distributed
// multicast tree actually meets: per-link message drop, delay (reordering),
// duplication, pairwise partitions, and whole-worker crashes.
//
// Determinism: each directed link owns a rand.Rand seeded from
// Config.Seed and the link's endpoints, and every Send draws a fixed
// number of variates regardless of which fault fires, so the fault pattern
// on a link depends only on the seed and that link's message sequence —
// not on cross-link interleaving or wall-clock time.
//
// Fault surfacing: drops and delays are silent (the sender sees success,
// as on a real lossy fabric); crashes and partitions fail fast with
// transport.ErrUnreachable, which transport.IsTransient classifies as
// retryable.
package chaos

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"whale/internal/transport"
)

// Config sets the seeded fault probabilities. Probabilities are evaluated
// per message; zero values inject nothing.
type Config struct {
	// Seed drives every per-link RNG. Runs with equal seeds and equal
	// per-link send sequences inject identical fault patterns.
	Seed int64
	// Drop is the probability a message is silently lost.
	Drop float64
	// Dup is the probability a delivered message is sent twice.
	Dup float64
	// Delay is the probability a message is held back before delivery.
	Delay float64
	// DelayMin/DelayMax bound the injected delay (defaults 200µs/2ms).
	DelayMin time.Duration
	DelayMax time.Duration
}

func (c Config) withDefaults() Config {
	if c.DelayMin <= 0 {
		c.DelayMin = 200 * time.Microsecond
	}
	if c.DelayMax < c.DelayMin {
		c.DelayMax = c.DelayMin + 2*time.Millisecond
	}
	return c
}

// Stats counts injected faults. All fields are atomic.
type Stats struct {
	Dropped     atomic.Int64 // messages silently lost
	Duplicated  atomic.Int64 // messages delivered twice
	Delayed     atomic.Int64 // messages held back
	Unreachable atomic.Int64 // sends refused by a crash or partition
	Slowed      atomic.Int64 // inbound messages throttled by SetSlow
}

// link is one directed link's fault state.
type link struct {
	mu  sync.Mutex
	rng *rand.Rand
}

// Net is a fault-injecting transport.Network decorator.
type Net struct {
	inner transport.Network

	mu      sync.Mutex
	cfg     Config
	links   map[uint64]*link
	crashed map[transport.WorkerID]bool
	cut     map[uint64]bool // partitioned unordered pairs
	slow    map[transport.WorkerID]*atomic.Int64
	closed  bool

	done  chan struct{}
	wg    sync.WaitGroup // delayed-delivery goroutines
	stats Stats
}

// Wrap decorates inner with fault injection. The wrapper owns inner's
// lifecycle: closing the returned Net aborts pending delayed deliveries
// and then closes inner.
func Wrap(inner transport.Network, cfg Config) *Net {
	return &Net{
		inner:   inner,
		cfg:     cfg.withDefaults(),
		links:   map[uint64]*link{},
		crashed: map[transport.WorkerID]bool{},
		cut:     map[uint64]bool{},
		slow:    map[transport.WorkerID]*atomic.Int64{},
		done:    make(chan struct{}),
	}
}

// Register implements transport.Network. Faults are injected on the send
// side, except SetSlow, which throttles the worker's inbound handler.
func (n *Net) Register(id transport.WorkerID, h transport.Handler) (transport.Transport, error) {
	n.mu.Lock()
	delay, ok := n.slow[id]
	if !ok {
		delay = &atomic.Int64{}
		n.slow[id] = delay
	}
	n.mu.Unlock()
	slowed := func(from transport.WorkerID, payload []byte) {
		if d := delay.Load(); d > 0 {
			n.stats.Slowed.Add(1)
			select {
			case <-time.After(time.Duration(d)):
			case <-n.done:
			}
		}
		h(from, payload)
	}
	tr, err := n.inner.Register(id, slowed)
	if err != nil {
		return nil, err
	}
	return &faultTransport{net: n, id: id, inner: tr}, nil
}

// SetSlow makes worker id a slow consumer: every inbound message is held
// for delay inside the receive path before reaching the worker's handler,
// so the worker's inbound queue really fills and backpressure engages.
// A delay of 0 restores full speed.
func (n *Net) SetSlow(id transport.WorkerID, delay time.Duration) {
	n.mu.Lock()
	d, ok := n.slow[id]
	if !ok {
		d = &atomic.Int64{}
		n.slow[id] = d
	}
	n.mu.Unlock()
	d.Store(int64(delay))
}

// Close implements transport.Network: it aborts pending delayed
// deliveries, waits for their goroutines, then closes the inner network.
func (n *Net) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	n.mu.Unlock()
	close(n.done)
	n.wg.Wait()
	return n.inner.Close()
}

// Stats exposes the fault counters.
func (n *Net) Stats() *Stats { return &n.stats }

// SetProbs replaces the drop/dup/delay probabilities at runtime (e.g. to
// end a chaos phase and let the system converge).
func (n *Net) SetProbs(drop, dup, delay float64) {
	n.mu.Lock()
	n.cfg.Drop, n.cfg.Dup, n.cfg.Delay = drop, dup, delay
	n.mu.Unlock()
}

// Crash cuts every link to and from id, emulating a whole-worker crash.
// The worker's transport keeps accepting local calls, but nothing it sends
// leaves and nothing reaches it. Crashes are permanent.
func (n *Net) Crash(id transport.WorkerID) {
	n.mu.Lock()
	n.crashed[id] = true
	n.mu.Unlock()
}

// Partition cuts the pair of links between a and b (both directions).
func (n *Net) Partition(a, b transport.WorkerID) {
	n.mu.Lock()
	n.cut[pairKey(a, b)] = true
	n.mu.Unlock()
}

// Heal restores the links between a and b.
func (n *Net) Heal(a, b transport.WorkerID) {
	n.mu.Lock()
	delete(n.cut, pairKey(a, b))
	n.mu.Unlock()
}

// blocked reports whether the directed link from->to is severed; callers
// hold n.mu.
func (n *Net) blocked(from, to transport.WorkerID) bool {
	return n.crashed[from] || n.crashed[to] || n.cut[pairKey(from, to)]
}

// linkFor returns the directed link's state, creating it on first use;
// callers hold n.mu.
func (n *Net) linkFor(from, to transport.WorkerID) *link {
	k := uint64(uint32(from))<<32 | uint64(uint32(to))
	l, ok := n.links[k]
	if !ok {
		l = &link{rng: rand.New(rand.NewSource(n.cfg.Seed ^ mix(k)))}
		n.links[k] = l
	}
	return l
}

// send applies the fault pipeline to one message.
func (n *Net) send(from, to transport.WorkerID, inner transport.Transport, payload []byte) error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return fmt.Errorf("%w: chaos network closed", transport.ErrPeerClosed)
	}
	if n.blocked(from, to) {
		n.mu.Unlock()
		n.stats.Unreachable.Add(1)
		return fmt.Errorf("%w: chaos link %d->%d severed", transport.ErrUnreachable, from, to)
	}
	cfg := n.cfg
	l := n.linkFor(from, to)
	n.mu.Unlock()

	// Draw a fixed number of variates per send so the link's fault
	// sequence stays seed-deterministic no matter which branch fires.
	l.mu.Lock()
	pDrop := l.rng.Float64()
	pDup := l.rng.Float64()
	pDelay := l.rng.Float64()
	delayFrac := l.rng.Float64()
	l.mu.Unlock()

	if pDrop < cfg.Drop {
		n.stats.Dropped.Add(1)
		return nil // silent loss: the sender believes the send succeeded
	}
	if pDelay < cfg.Delay {
		n.stats.Delayed.Add(1)
		d := cfg.DelayMin + time.Duration(delayFrac*float64(cfg.DelayMax-cfg.DelayMin))
		cp := append([]byte(nil), payload...)
		n.mu.Lock()
		if n.closed {
			n.mu.Unlock()
			return nil
		}
		n.wg.Add(1)
		n.mu.Unlock()
		go func() {
			defer n.wg.Done()
			select {
			case <-time.After(d):
			case <-n.done:
				return
			}
			n.mu.Lock()
			blocked := n.closed || n.blocked(from, to)
			n.mu.Unlock()
			if !blocked {
				// Late delivery is the point; a send error here is just
				// another (accounted) loss.
				_ = inner.Send(to, cp)
			}
		}()
		return nil
	}
	if err := inner.Send(to, payload); err != nil {
		return err
	}
	if pDup < cfg.Dup {
		n.stats.Duplicated.Add(1)
		return inner.Send(to, payload)
	}
	return nil
}

// faultTransport decorates one worker's transport. Traffic counters remain
// the inner transport's (only messages that really hit the wire count);
// injected faults are accounted in the Net's Stats.
type faultTransport struct {
	net   *Net
	id    transport.WorkerID
	inner transport.Transport
}

// Send implements transport.Transport.
func (t *faultTransport) Send(to transport.WorkerID, payload []byte) error {
	return t.net.send(t.id, to, t.inner, payload)
}

// Flush implements transport.Transport.
func (t *faultTransport) Flush() error { return t.inner.Flush() }

// Pressure implements transport.Transport, delegating to the inner link.
func (t *faultTransport) Pressure(to transport.WorkerID) int { return t.inner.Pressure(to) }

// Stats implements transport.Transport.
func (t *faultTransport) Stats() *transport.Stats { return t.inner.Stats() }

// Close implements transport.Transport.
func (t *faultTransport) Close() error { return t.inner.Close() }

// pairKey normalizes an unordered worker pair into one map key.
func pairKey(a, b transport.WorkerID) uint64 {
	if a > b {
		a, b = b, a
	}
	return uint64(uint32(a))<<32 | uint64(uint32(b))
}

// mix is a splitmix64 finalizer, decorrelating per-link seeds.
func mix(x uint64) int64 {
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return int64(x)
}
