package rdma

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"
)

// dialPair sets up two endpoints and a channel from a to b, collecting
// received messages into a synchronized slice.
func dialPair(t *testing.T, cfg ChannelConfig) (send *Channel, recvd func() []string) {
	t.Helper()
	f := NewFabric(CostModel{})
	ea, err := NewEndpoint(f, "a-"+t.Name(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	eb, err := NewEndpoint(f, "b-"+t.Name(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var msgs []string
	eb.OnAccept(func(remote string, ch *Channel) {
		if remote != ea.Name() {
			t.Errorf("accept from %q", remote)
		}
		ch.SetHandler(func(m []byte) {
			mu.Lock()
			msgs = append(msgs, string(m))
			mu.Unlock()
		})
	})
	send, err = ea.Dial(eb.Name())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ea.Close(); eb.Close() })
	return send, func() []string {
		mu.Lock()
		defer mu.Unlock()
		return append([]string(nil), msgs...)
	}
}

func waitFor(t *testing.T, n int, recvd func() []string) []string {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if got := recvd(); len(got) >= n {
			return got
		}
		time.Sleep(200 * time.Microsecond)
	}
	t.Fatalf("timed out waiting for %d messages (have %d)", n, len(recvd()))
	return nil
}

func testChannelRoundTrip(t *testing.T, mode Mode) {
	send, recvd := dialPair(t, ChannelConfig{Mode: mode, MMS: 4 << 10, WTL: time.Millisecond})
	const total = 300
	for i := 0; i < total; i++ {
		if err := send.Send([]byte(fmt.Sprintf("%s-%04d", mode, i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := send.Flush(); err != nil {
		t.Fatal(err)
	}
	got := waitFor(t, total, recvd)
	for i := 0; i < total; i++ {
		want := fmt.Sprintf("%s-%04d", mode, i)
		if got[i] != want {
			t.Fatalf("msg %d = %q, want %q", i, got[i], want)
		}
	}
	st := send.Stats()
	if st.MsgsSent != total {
		t.Fatalf("stats: sent %d", st.MsgsSent)
	}
	if st.WorkRequests >= total {
		t.Fatalf("batching ineffective: %d work requests for %d messages", st.WorkRequests, total)
	}
}

func TestChannelOneSidedRead(t *testing.T)  { testChannelRoundTrip(t, ModeOneSidedRead) }
func TestChannelTwoSided(t *testing.T)      { testChannelRoundTrip(t, ModeTwoSided) }
func TestChannelOneSidedWrite(t *testing.T) { testChannelRoundTrip(t, ModeOneSidedWrite) }

func TestChannelWTLFlush(t *testing.T) {
	// With a huge MMS, only the WTL timer can flush.
	send, recvd := dialPair(t, ChannelConfig{MMS: 1 << 20, WTL: 2 * time.Millisecond})
	if err := send.Send([]byte("lonely")); err != nil {
		t.Fatal(err)
	}
	got := waitFor(t, 1, recvd)
	if got[0] != "lonely" {
		t.Fatalf("got %q", got[0])
	}
	st := send.Stats()
	if st.TimerFlushes == 0 {
		t.Fatal("expected a WTL timer flush")
	}
	if st.SizeFlushes != 0 {
		t.Fatal("unexpected size flush")
	}
}

func TestChannelMMSFlush(t *testing.T) {
	// With a large WTL, only MMS can flush.
	send, recvd := dialPair(t, ChannelConfig{MMS: 1 << 10, WTL: time.Hour})
	payload := make([]byte, 600)
	send.Send(payload)
	send.Send(payload) // 1208 bytes >= 1 KiB: size flush
	waitFor(t, 2, recvd)
	st := send.Stats()
	if st.SizeFlushes != 1 {
		t.Fatalf("size flushes %d, want 1", st.SizeFlushes)
	}
}

// TestChannelWTLFlushWhileRingFull forces the WTL timer flush to fire
// while the ring region is full: the receive handler is gated so the
// first batch occupies the ring (its tail feedback is withheld), then the
// next timer flush must block on ErrRingFull until the gate opens. The
// blocked flush must neither fail nor drop data, and delivery order must
// be preserved.
func TestChannelWTLFlushWhileRingFull(t *testing.T) {
	// Huge MMS so only the WTL timer flushes; a 1 KiB ring (1008-byte data
	// area) that one 400-byte message occupies by 40%.
	cfg := ChannelConfig{MMS: 1 << 20, WTL: 2 * time.Millisecond, RingSize: 1 << 10}
	f := NewFabric(CostModel{})
	ea, err := NewEndpoint(f, "a-"+t.Name(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	eb, err := NewEndpoint(f, "b-"+t.Name(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var msgs []string
	entered := make(chan struct{}) // receiver reached the first message
	gate := make(chan struct{})    // holds the first delivery (and its tail feedback)
	eb.OnAccept(func(_ string, ch *Channel) {
		ch.SetHandler(func(m []byte) {
			mu.Lock()
			first := len(msgs) == 0
			msgs = append(msgs, string(m))
			mu.Unlock()
			if first {
				close(entered)
				<-gate
			}
		})
	})
	send, err := ea.Dial(eb.Name())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ea.Close(); eb.Close() })
	recvd := func() []string {
		mu.Lock()
		defer mu.Unlock()
		return append([]string(nil), msgs...)
	}

	payload := func(c byte) []byte {
		p := make([]byte, 400)
		for i := range p {
			p[i] = c
		}
		return p
	}
	// Message A timer-flushes into the ring; the gated handler stalls the
	// Poll before its tail write-back, so A's 408 ring bytes stay occupied.
	if err := send.Send(payload('a')); err != nil {
		t.Fatal(err)
	}
	<-entered
	// B and C (808-byte batch, 812 on the ring) cannot fit next to A's 408
	// in 1008 bytes: the WTL flush must block on the full ring.
	if err := send.Send(payload('b')); err != nil {
		t.Fatal(err)
	}
	if err := send.Send(payload('c')); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for send.Stats().BlockedNS == 0 {
		if time.Now().After(deadline) {
			t.Fatal("WTL flush never blocked on the full ring")
		}
		time.Sleep(100 * time.Microsecond)
	}
	// Release the receiver: the tail feedback frees the ring, the blocked
	// flush completes, and every message arrives in order.
	close(gate)
	got := waitFor(t, 3, recvd)
	for i, c := range []byte{'a', 'b', 'c'} {
		if got[i] != string(payload(c)) {
			t.Fatalf("message %d corrupted (got %q...)", i, got[i][:8])
		}
	}
	st := send.Stats()
	if st.TimerFlushes < 2 {
		t.Fatalf("timer flushes %d, want >= 2", st.TimerFlushes)
	}
	if st.SizeFlushes != 0 {
		t.Fatalf("unexpected size flush (%d)", st.SizeFlushes)
	}
	if err := send.Flush(); err != nil {
		t.Fatalf("channel latched an error from the blocked flush: %v", err)
	}
}

func TestChannelBackpressureOnFullRing(t *testing.T) {
	// A ring smaller than the data volume forces Send/Flush to block until
	// the receiver drains; nothing may be lost.
	send, recvd := dialPair(t, ChannelConfig{MMS: 512, WTL: time.Hour, RingSize: 8 << 10})
	const total = 400
	payload := make([]byte, 256)
	for i := 0; i < total; i++ {
		payload[0] = byte(i)
		if err := send.Send(payload); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	send.Flush()
	got := waitFor(t, total, recvd)
	if len(got) != total {
		t.Fatalf("received %d of %d", len(got), total)
	}
	if send.Stats().BlockedNS == 0 {
		t.Log("note: ring never filled; backpressure path not exercised")
	}
}

func TestChannelCloseFlushesPending(t *testing.T) {
	send, recvd := dialPair(t, ChannelConfig{MMS: 1 << 20, WTL: time.Hour})
	send.Send([]byte("final"))
	if err := send.Close(); err != nil {
		t.Fatal(err)
	}
	got := waitFor(t, 1, recvd)
	if got[0] != "final" {
		t.Fatalf("got %q", got)
	}
	if err := send.Send([]byte("after-close")); err == nil {
		t.Fatal("send on closed channel accepted")
	}
	if err := send.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

func TestDialErrors(t *testing.T) {
	f := NewFabric(CostModel{})
	ea, err := NewEndpoint(f, "only", ChannelConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ea.Dial("missing"); err == nil {
		t.Fatal("dial to unknown endpoint accepted")
	}
	// An endpoint with no accept hook refuses inbound channels.
	eb, _ := NewEndpoint(f, "mute", ChannelConfig{})
	_ = eb
	if _, err := ea.Dial("mute"); err == nil {
		t.Fatal("dial to non-accepting endpoint succeeded")
	}
	if _, err := NewEndpoint(f, "only", ChannelConfig{}); err == nil {
		t.Fatal("duplicate endpoint name accepted")
	}
}

func TestChannelManyToOne(t *testing.T) {
	// Several senders into one endpoint: per-channel ordering must hold.
	f := NewFabric(CostModel{})
	cfg := ChannelConfig{MMS: 2 << 10, WTL: time.Millisecond}
	sink, err := NewEndpoint(f, "sink", cfg)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	perSender := map[string][]string{}
	sink.OnAccept(func(remote string, ch *Channel) {
		ch.SetHandler(func(m []byte) {
			mu.Lock()
			perSender[remote] = append(perSender[remote], string(m))
			mu.Unlock()
		})
	})
	const senders, each = 4, 100
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		ep, err := NewEndpoint(f, fmt.Sprintf("src%d", s), cfg)
		if err != nil {
			t.Fatal(err)
		}
		ch, err := ep.Dial("sink")
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(s int, ch *Channel) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if err := ch.Send([]byte(fmt.Sprintf("%d", i))); err != nil {
					t.Errorf("sender %d: %v", s, err)
					return
				}
			}
			ch.Flush()
		}(s, ch)
	}
	wg.Wait()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		mu.Lock()
		n := 0
		for _, v := range perSender {
			n += len(v)
		}
		mu.Unlock()
		if n == senders*each {
			break
		}
		time.Sleep(time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(perSender) != senders {
		t.Fatalf("heard from %d senders", len(perSender))
	}
	for who, msgs := range perSender {
		if len(msgs) != each {
			t.Fatalf("%s delivered %d of %d", who, len(msgs), each)
		}
		for i, m := range msgs {
			if m != fmt.Sprintf("%d", i) {
				t.Fatalf("%s message %d = %q (ordering)", who, i, m)
			}
		}
	}
}

func TestModeString(t *testing.T) {
	if ModeOneSidedRead.String() != "one-sided-read" ||
		ModeTwoSided.String() != "two-sided" ||
		ModeOneSidedWrite.String() != "one-sided-write" {
		t.Fatal("mode strings")
	}
}

// TestClosedEndpointLeavesFabric: Close takes the endpoint off its fabric,
// so it can no longer be dialed, and nothing outside the fabric keeps the
// fabric — with every region registered on it — reachable once its users
// are gone.
func TestClosedEndpointLeavesFabric(t *testing.T) {
	collected := make(chan struct{})
	func() {
		f := NewFabric(CostModel{})
		cfg := ChannelConfig{Mode: ModeOneSidedRead}
		ea, err := NewEndpoint(f, "a", cfg)
		if err != nil {
			t.Fatal(err)
		}
		eb, err := NewEndpoint(f, "b", cfg)
		if err != nil {
			t.Fatal(err)
		}
		eb.OnAccept(func(_ string, ch *Channel) { ch.SetHandler(func([]byte) {}) })
		send, err := ea.Dial("b")
		if err != nil {
			t.Fatal(err)
		}
		// The ring region's bytes stand for the fabric's memory: pointer-free,
		// so (unlike the fabric, whose devices point back at it) a finalizer
		// on them runs as soon as nothing reaches the fabric any more.
		runtime.SetFinalizer(&send.ring.mr.buf[0], func(*byte) { close(collected) })
		if err := eb.Close(); err != nil {
			t.Fatal(err)
		}
		if _, err := ea.Dial("b"); err == nil {
			t.Fatal("dialed an endpoint after its Close")
		}
		if err := ea.Close(); err != nil {
			t.Fatal(err)
		}
	}()
	deadline := time.After(10 * time.Second)
	for {
		runtime.GC()
		select {
		case <-collected:
			return
		case <-deadline:
			t.Fatal("ring region still reachable after both endpoints closed")
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// TestRingOccupancyConcurrentWithAppend reads a channel's ring pressure
// while another goroutine sends through it (run under -race: the pressure
// reader and the flusher share the ring's cursors).
func TestRingOccupancyConcurrentWithAppend(t *testing.T) {
	send, recvd := dialPair(t, ChannelConfig{Mode: ModeOneSidedRead, MMS: 64, WTL: time.Millisecond})
	const n = 500
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				if send.RingOccupancy() < 0 || send.PressurePct() > 100 {
					t.Error("ring occupancy out of range")
					return
				}
			}
		}
	}()
	for i := 0; i < n; i++ {
		if err := send.Send([]byte(fmt.Sprintf("msg-%04d", i))); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, n, recvd)
	close(stop)
	wg.Wait()
}
