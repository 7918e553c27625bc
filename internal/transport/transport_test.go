package transport

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"whale/internal/metrics"
	"whale/internal/rdma"
)

// networks under test, constructed fresh per case.
func networks() map[string]func() Network {
	return map[string]func() Network{
		"inproc": func() Network { return NewInprocNetwork(0) },
		"tcp":    func() Network { return NewTCPNetwork() },
		"rdma-read": func() Network {
			return NewRDMANetwork(rdma.CostModel{}, rdma.ChannelConfig{MMS: 8 << 10})
		},
		"rdma-twosided": func() Network {
			return NewRDMANetwork(rdma.CostModel{}, rdma.ChannelConfig{Mode: rdma.ModeTwoSided, MMS: 8 << 10})
		},
		"rdma-write": func() Network {
			return NewRDMANetwork(rdma.CostModel{}, rdma.ChannelConfig{Mode: rdma.ModeOneSidedWrite, MMS: 8 << 10})
		},
	}
}

type collector struct {
	mu   sync.Mutex
	msgs map[WorkerID][]string // keyed by sender
}

func newCollector() *collector { return &collector{msgs: map[WorkerID][]string{}} }

func (c *collector) handler(from WorkerID, payload []byte) {
	c.mu.Lock()
	c.msgs[from] = append(c.msgs[from], string(payload))
	c.mu.Unlock()
}

func (c *collector) total() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, v := range c.msgs {
		n += len(v)
	}
	return n
}

func (c *collector) from(id WorkerID) []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.msgs[id]...)
}

func waitTotal(t *testing.T, c *collector, want int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if c.total() >= want {
			return
		}
		time.Sleep(500 * time.Microsecond)
	}
	t.Fatalf("timeout: have %d of %d messages", c.total(), want)
}

func TestRoundTripAllTransports(t *testing.T) {
	for name, mk := range networks() {
		t.Run(name, func(t *testing.T) {
			net := mk()
			defer net.Close()
			cA := newCollector()
			cB := newCollector()
			ta, err := net.Register(1, cA.handler)
			if err != nil {
				t.Fatal(err)
			}
			tb, err := net.Register(2, cB.handler)
			if err != nil {
				t.Fatal(err)
			}
			const total = 200
			for i := 0; i < total; i++ {
				if err := ta.Send(2, []byte(fmt.Sprintf("a->b %03d", i))); err != nil {
					t.Fatal(err)
				}
				if err := tb.Send(1, []byte(fmt.Sprintf("b->a %03d", i))); err != nil {
					t.Fatal(err)
				}
			}
			ta.Flush()
			tb.Flush()
			waitTotal(t, cA, total)
			waitTotal(t, cB, total)
			// Ordering per link.
			for i, m := range cB.from(1) {
				if m != fmt.Sprintf("a->b %03d", i) {
					t.Fatalf("b's message %d = %q", i, m)
				}
			}
			for i, m := range cA.from(2) {
				if m != fmt.Sprintf("b->a %03d", i) {
					t.Fatalf("a's message %d = %q", i, m)
				}
			}
			// Stats.
			st := ta.Stats().Load()
			if st.MsgsSent != total || st.MsgsRecv != total {
				t.Fatalf("stats %+v", st)
			}
			if st.BytesSent == 0 || st.SendNS < 0 {
				t.Fatalf("stats %+v", st)
			}
		})
	}
}

// TestSendNSSampled: timedSend times one in each block of 16 of 64 sends —
// four — and adds SampleEvery times each, so SendNS estimates the total wall
// time of all 64 within 2x while every count stays exact. Each send spins
// for a fixed time, so the estimate is not at the mercy of nanosecond
// noise; a run the scheduler still skews gets three tries.
func TestSendNSSampled(t *testing.T) {
	const sends, spin = 64, 300 * time.Microsecond
	var ratio float64
	for try := 0; try < 3; try++ {
		var st Stats
		var exact time.Duration
		for i := 0; i < sends; i++ {
			var err error
			if i == 5 {
				err = errors.New("refused")
			}
			_ = timedSend(&st, 10, func() error {
				t0 := time.Now()
				for time.Since(t0) < spin {
				}
				exact += time.Since(t0)
				return err
			})
		}
		s := st.Load()
		if s.MsgsSent != sends-1 || s.SendErrs != 1 || s.BytesSent != 10*(sends-1) {
			t.Fatalf("counts %+v, want %d sent, 1 error", s, sends-1)
		}
		// Four timed sends of at least spin each, times SampleEvery.
		if min := int64(4 * metrics.SampleEvery * spin); s.SendNS < min {
			t.Fatalf("SendNS = %d, want >= %d (4 sampled sends x %d)", s.SendNS, min, metrics.SampleEvery)
		}
		ratio = float64(s.SendNS) / float64(exact)
		if ratio >= 0.5 && ratio <= 2 {
			return
		}
	}
	t.Fatalf("SendNS / exact send time = %.2f in the last of three runs, want within [0.5, 2]", ratio)
}

func TestUnknownWorker(t *testing.T) {
	for name, mk := range networks() {
		t.Run(name, func(t *testing.T) {
			net := mk()
			defer net.Close()
			ta, err := net.Register(1, func(WorkerID, []byte) {})
			if err != nil {
				t.Fatal(err)
			}
			if err := ta.Send(99, []byte("x")); err == nil {
				t.Fatal("send to unknown worker accepted")
			}
		})
	}
}

func TestDuplicateRegistration(t *testing.T) {
	for name, mk := range networks() {
		t.Run(name, func(t *testing.T) {
			net := mk()
			defer net.Close()
			if _, err := net.Register(1, func(WorkerID, []byte) {}); err != nil {
				t.Fatal(err)
			}
			if _, err := net.Register(1, func(WorkerID, []byte) {}); err == nil {
				t.Fatal("duplicate registration accepted")
			}
		})
	}
}

func TestManyToOneFanIn(t *testing.T) {
	for name, mk := range networks() {
		t.Run(name, func(t *testing.T) {
			net := mk()
			defer net.Close()
			sink := newCollector()
			if _, err := net.Register(0, sink.handler); err != nil {
				t.Fatal(err)
			}
			const senders, each = 5, 50
			var wg sync.WaitGroup
			for s := 1; s <= senders; s++ {
				tr, err := net.Register(WorkerID(s), func(WorkerID, []byte) {})
				if err != nil {
					t.Fatal(err)
				}
				wg.Add(1)
				go func(s int, tr Transport) {
					defer wg.Done()
					for i := 0; i < each; i++ {
						if err := tr.Send(0, []byte(fmt.Sprintf("%d:%d", s, i))); err != nil {
							t.Errorf("sender %d: %v", s, err)
							return
						}
					}
					tr.Flush()
				}(s, tr)
			}
			wg.Wait()
			waitTotal(t, sink, senders*each)
			for s := 1; s <= senders; s++ {
				msgs := sink.from(WorkerID(s))
				if len(msgs) != each {
					t.Fatalf("sender %d delivered %d", s, len(msgs))
				}
				for i, m := range msgs {
					if m != fmt.Sprintf("%d:%d", s, i) {
						t.Fatalf("sender %d message %d = %q", s, i, m)
					}
				}
			}
		})
	}
}

func TestPayloadCopiedBeforeReturn(t *testing.T) {
	// Mutating the buffer after Send must not corrupt the delivered message.
	for name, mk := range networks() {
		t.Run(name, func(t *testing.T) {
			net := mk()
			defer net.Close()
			sink := newCollector()
			net.Register(0, sink.handler)
			tr, _ := net.Register(1, func(WorkerID, []byte) {})
			buf := []byte("original")
			if err := tr.Send(0, buf); err != nil {
				t.Fatal(err)
			}
			copy(buf, "CLOBBER!")
			tr.Flush()
			waitTotal(t, sink, 1)
			if got := sink.from(1)[0]; got != "original" {
				t.Fatalf("payload aliased: %q", got)
			}
		})
	}
}

func TestRDMAChannelStatsAggregation(t *testing.T) {
	net := NewRDMANetwork(rdma.CostModel{}, rdma.ChannelConfig{MMS: 1 << 10})
	defer net.Close()
	sink := newCollector()
	// The receiver sits in the first message until everything is sent, so
	// the link is busy and the rest batch up to MMS whatever the timing.
	gate := make(chan struct{})
	net.Register(0, func(from WorkerID, payload []byte) {
		<-gate
		sink.handler(from, payload)
	})
	tr, _ := net.Register(1, func(WorkerID, []byte) {})
	rt := tr.(*rdmaTransport)
	for i := 0; i < 100; i++ {
		tr.Send(0, make([]byte, 128))
	}
	tr.Flush()
	close(gate)
	waitTotal(t, sink, 100)
	cs := rt.ChannelStats()
	if cs.MsgsSent != 100 || cs.WorkRequests == 0 {
		t.Fatalf("channel stats %+v", cs)
	}
	// The first message alone, then eight 132-byte entries per 1 KiB batch.
	if cs.WorkRequests > 20 {
		t.Fatalf("no batching: %d WRs", cs.WorkRequests)
	}
	if cs.IdleFlushes == 0 || cs.SizeFlushes == 0 {
		t.Fatalf("flush reasons not aggregated: %+v", cs)
	}
	// The receiving worker's side of the same channel.
	rs := net.workers[0].ChannelStats()
	if rs.MsgsRecv != 100 || rs.CQPolls == 0 {
		t.Fatalf("receive-side stats %+v", rs)
	}
}

func TestSendErrsCounted(t *testing.T) {
	net := NewInprocNetwork(0)
	defer net.Close()
	a, err := net.Register(0, func(WorkerID, []byte) {})
	if err != nil {
		t.Fatal(err)
	}
	b, err := net.Register(1, func(WorkerID, []byte) {})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Send(1, []byte("ok")); err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Send(1, []byte("lost")); !errors.Is(err, ErrPeerClosed) {
		t.Fatalf("send to closed peer = %v, want ErrPeerClosed", err)
	}
	st := a.Stats().Load()
	if st.SendErrs != 1 {
		t.Fatalf("SendErrs=%d, want 1", st.SendErrs)
	}
	// Failed sends never count as sent traffic.
	if st.MsgsSent != 1 || st.BytesSent != 2 {
		t.Fatalf("sent %d msgs / %d bytes, want 1/2", st.MsgsSent, st.BytesSent)
	}
}

func TestIsTransientClassification(t *testing.T) {
	transient := []error{
		ErrUnreachable,
		fmt.Errorf("wrapped: %w", ErrUnreachable),
		fmt.Errorf("rdma: QP 7 %w", rdma.ErrSQFull),
		fmt.Errorf("rdma: QP 7 %w", rdma.ErrRQFull),
	}
	for _, err := range transient {
		if !IsTransient(err) {
			t.Fatalf("%v not classified transient", err)
		}
	}
	permanent := []error{
		nil,
		ErrPeerClosed,
		fmt.Errorf("wrapped: %w", ErrPeerClosed),
		errUnknownWorker(9),
		fmt.Errorf("rdma: QP 7 %w", rdma.ErrQPClosed),
		fmt.Errorf("rdma: QP 7 %w", rdma.ErrNotConnected),
	}
	for _, err := range permanent {
		if IsTransient(err) {
			t.Fatalf("%v classified transient", err)
		}
	}
}

// TestRDMAConcurrentFirstSends: senders racing to reach fresh peers dial
// each peer exactly once, every message arrives, and Pressure, Flush and
// the stats aggregates read the channel map meanwhile without a lock. Run
// under -race.
func TestRDMAConcurrentFirstSends(t *testing.T) {
	const peers, sendersPerPeer, msgs = 6, 4, 20
	net := NewRDMANetwork(rdma.CostModel{}, rdma.ChannelConfig{MMS: 4 << 10})
	defer net.Close()
	sink := newCollector()
	tr, err := net.Register(0, func(WorkerID, []byte) {})
	if err != nil {
		t.Fatal(err)
	}
	for p := WorkerID(1); p <= peers; p++ {
		if _, err := net.Register(p, sink.handler); err != nil {
			t.Fatal(err)
		}
	}
	rt := tr.(*rdmaTransport)
	stop := make(chan struct{})
	var readers, senders sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for p := WorkerID(1); p <= peers; p++ {
				if pct := tr.Pressure(p); pct < 0 || pct > 100 {
					t.Errorf("Pressure(%d) = %d", p, pct)
				}
			}
			_ = rt.RingOccupancy()
			_ = rt.ChannelStats()
			_ = tr.Flush()
		}
	}()
	for p := WorkerID(1); p <= peers; p++ {
		for s := 0; s < sendersPerPeer; s++ {
			senders.Add(1)
			go func(p WorkerID) {
				defer senders.Done()
				for i := 0; i < msgs; i++ {
					if err := tr.Send(p, []byte("x")); err != nil {
						t.Errorf("send to %d: %v", p, err)
					}
				}
			}(p)
		}
	}
	senders.Wait()
	close(stop)
	readers.Wait()
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	waitTotal(t, sink, peers*sendersPerPeer*msgs)
	if n := len(*rt.chans.Load()); n != peers {
		t.Fatalf("%d channels dialled for %d peers", n, peers)
	}
	if got := rt.ChannelStats().MsgsSent; got != peers*sendersPerPeer*msgs {
		t.Fatalf("channels sent %d messages, want %d", got, peers*sendersPerPeer*msgs)
	}
}
