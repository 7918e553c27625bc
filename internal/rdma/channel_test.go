package rdma

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"sort"
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
	send, recvd := dialPair(t, ChannelConfig{Mode: mode, MMS: 4 << 10})
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
	// How many batches the burst became depends on how fast the receiver
	// drained (batching is opportunistic), but every one of them left for a
	// reason: full, link free, or the one explicit Flush.
	if st.WorkRequests < 1 || st.WorkRequests > total {
		t.Fatalf("%d work requests for %d messages", st.WorkRequests, total)
	}
	if byReason := st.SizeFlushes + st.IdleFlushes; byReason < st.WorkRequests-1 || byReason > st.WorkRequests {
		t.Fatalf("%d work requests, but %d size + %d idle flushes (+ at most the one explicit)",
			st.WorkRequests, st.SizeFlushes, st.IdleFlushes)
	}
}

func TestChannelOneSidedRead(t *testing.T)  { testChannelRoundTrip(t, ModeOneSidedRead) }
func TestChannelTwoSided(t *testing.T)      { testChannelRoundTrip(t, ModeTwoSided) }
func TestChannelOneSidedWrite(t *testing.T) { testChannelRoundTrip(t, ModeOneSidedWrite) }

// TestChannelIdleSendShipsAtOnce: a lone Send on an idle link leaves with
// the Send — MMS is nowhere near — and a second one, sent once the first
// was consumed, does too.
func TestChannelIdleSendShipsAtOnce(t *testing.T) {
	for _, mode := range []Mode{ModeOneSidedRead, ModeTwoSided, ModeOneSidedWrite} {
		t.Run(mode.String(), func(t *testing.T) {
			send, recvd := dialPair(t, ChannelConfig{Mode: mode, MMS: 1 << 20})
			for i, m := range []string{"lonely", "lonelier"} {
				t0 := time.Now()
				if err := send.Send([]byte(m)); err != nil {
					t.Fatal(err)
				}
				if got := waitFor(t, i+1, recvd); got[i] != m {
					t.Fatalf("got %q", got[i])
				}
				if d := time.Since(t0); d > time.Second {
					t.Fatalf("message %d took %v on an idle link", i, d)
				}
				// The receiver acknowledges after the handler returns; the
				// next Send must find the link free again.
				deadline := time.Now().Add(5 * time.Second)
				for !send.caughtUp() {
					if time.Now().After(deadline) {
						t.Fatal("link never came free again")
					}
					time.Sleep(50 * time.Microsecond)
				}
			}
			st := send.Stats()
			if st.IdleFlushes != 2 || st.SizeFlushes != 0 || st.WorkRequests != 2 {
				t.Fatalf("flushes: %d idle, %d size, %d work requests; want 2 idle only",
					st.IdleFlushes, st.SizeFlushes, st.WorkRequests)
			}
		})
	}
}

// gatedPair dials a channel whose receive handler blocks inside the first
// message until gate is closed: from the moment entered is closed the link
// is busy — the first batch is delivered but not acknowledged — for as long
// as the test likes.
func gatedPair(t *testing.T, cfg ChannelConfig) (send *Channel, recvd func() []string, entered, gate chan struct{}) {
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
	entered = make(chan struct{}) // receiver reached the first message
	gate = make(chan struct{})    // holds the first delivery (and its tail feedback)
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
	send, err = ea.Dial(eb.Name())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ea.Close(); eb.Close() })
	return send, func() []string {
		mu.Lock()
		defer mu.Unlock()
		return append([]string(nil), msgs...)
	}, entered, gate
}

func filled(c byte, n int) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = c
	}
	return p
}

// TestChannelBatchBehindBlockedReceiver: a batch that opened behind a
// blocked link — the receiver is stuck inside the message ahead of it —
// stays pending however long the block lasts, and leaves as one batch, in
// order, once the receiver frees the link.
func TestChannelBatchBehindBlockedReceiver(t *testing.T) {
	send, recvd, entered, gate := gatedPair(t, ChannelConfig{MMS: 1 << 20})
	if err := send.Send([]byte("ahead")); err != nil {
		t.Fatal(err)
	}
	<-entered
	for _, m := range []string{"behind", "with it"} {
		if err := send.Send([]byte(m)); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(20 * time.Millisecond)
	if st := send.Stats(); st.WorkRequests != 1 {
		t.Fatalf("%d work requests with the link blocked, want the first message's only", st.WorkRequests)
	}
	close(gate)
	got := waitFor(t, 3, recvd)
	if got[0] != "ahead" || got[1] != "behind" || got[2] != "with it" {
		t.Fatalf("got %q", got)
	}
	st := send.Stats()
	if st.IdleFlushes != 2 || st.SizeFlushes != 0 || st.WorkRequests != 2 {
		t.Fatalf("flushes: %d idle, %d size, %d work requests; want 2 idle: the first message, then the batch behind it",
			st.IdleFlushes, st.SizeFlushes, st.WorkRequests)
	}
}

// TestChannelMMSFlush: MMS still closes a full batch, blocked link
// notwithstanding.
func TestChannelMMSFlush(t *testing.T) {
	send, recvd, entered, gate := gatedPair(t, ChannelConfig{MMS: 1 << 10})
	if err := send.Send([]byte("ahead")); err != nil {
		t.Fatal(err)
	}
	<-entered
	payload := make([]byte, 600)
	if err := send.Send(payload); err != nil {
		t.Fatal(err)
	}
	if st := send.Stats(); st.WorkRequests != 1 || st.SizeFlushes != 0 {
		t.Fatalf("%d work requests, %d size flushes under MMS with the link blocked", st.WorkRequests, st.SizeFlushes)
	}
	if err := send.Send(payload); err != nil { // 1208 bytes >= 1 KiB: size flush
		t.Fatal(err)
	}
	st := send.Stats()
	if st.SizeFlushes != 1 || st.WorkRequests != 2 {
		t.Fatalf("flushes: %d size, %d work requests; want the one size flush", st.SizeFlushes, st.WorkRequests)
	}
	close(gate)
	waitFor(t, 3, recvd)
}

// TestChannelMMSFlushWhileRingFull forces a flush to block on a full ring
// and sends on behind it. The receive handler is gated so the first batch
// occupies the ring (its tail feedback is withheld); the next batch fills
// to MMS but does not fit beside it, so its flush parks on the full ring
// until the gate opens. The blocked flush must neither fail nor drop data;
// what was sent while it was blocked must leave as one batch behind it, and
// delivery order must be preserved.
func TestChannelMMSFlushWhileRingFull(t *testing.T) {
	// A 1 KiB ring (1008-byte data area) that one 400-byte message occupies
	// by 40%, and an MMS that two such messages reach.
	send, recvd, entered, gate := gatedPair(t, ChannelConfig{MMS: 800, RingSize: 1 << 10})
	// Message A leaves with its Send; the gated handler stalls the poll
	// before its tail write-back, so A's 408 ring bytes stay occupied.
	if err := send.Send(filled('a', 400)); err != nil {
		t.Fatal(err)
	}
	<-entered
	// B waits behind the busy link; C fills the batch to MMS, and B+C (812
	// bytes on the ring) cannot fit next to A's 408 in 1008 bytes, so C's
	// Send blocks in the size flush.
	if err := send.Send(filled('b', 400)); err != nil {
		t.Fatal(err)
	}
	sentC := make(chan error, 1)
	go func() { sentC <- send.Send(filled('c', 400)) }()
	deadline := time.Now().Add(5 * time.Second)
	for send.Stats().WorkRequests < 2 {
		if time.Now().After(deadline) {
			t.Fatal("the size flush never started")
		}
		time.Sleep(100 * time.Microsecond)
	}
	// D and E find the link busy and the semaphore taken, and stay pending
	// behind the blocked flush.
	if err := send.Send(filled('d', 80)); err != nil {
		t.Fatal(err)
	}
	if err := send.Send(filled('e', 80)); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	select {
	case err := <-sentC:
		t.Fatalf("the size flush returned (%v) with the ring full", err)
	default:
	}
	if st := send.Stats(); st.WorkRequests != 2 {
		t.Fatalf("%d work requests while the ring is full, want A's and the blocked one", st.WorkRequests)
	}
	// Release the receiver: the tail feedback frees the ring and rings room,
	// the blocked flush completes, and its holder takes D and E along as one
	// batch.
	close(gate)
	if err := <-sentC; err != nil {
		t.Fatalf("the blocked flush failed: %v", err)
	}
	got := waitFor(t, 5, recvd)
	for i, c := range []byte{'a', 'b', 'c', 'd', 'e'} {
		if want := len(filled(c, 400)); got[i][0] != c || (i < 3 && len(got[i]) != want) {
			t.Fatalf("message %d corrupted or out of order (got %q...)", i, got[i][:8])
		}
	}
	if err := send.Flush(); err != nil {
		t.Fatalf("channel latched an error from the blocked flush: %v", err)
	}
	st := send.Stats()
	if st.WorkRequests != 3 {
		t.Fatalf("%d work requests, want 3: A, B+C, D+E", st.WorkRequests)
	}
	if st.SizeFlushes != 1 || st.IdleFlushes != 2 || st.BlockedNS == 0 {
		t.Fatalf("flushes: %d size, %d idle, %d ns blocked; want B+C's size flush, parked on the ring, between two idle ones",
			st.SizeFlushes, st.IdleFlushes, st.BlockedNS)
	}
}

// TestCloseLeavesParkedFlusherRoom: Close waiting for the drain and a Send
// racing it, whose flush parks on the full ring behind Close, both wait on
// room. The receiver rings it once, as its tail feedback lands; Close takes
// that ring and finds the ring drained, and must pass it on, or the flusher
// sits out the block timeout with room to spare.
func TestCloseLeavesParkedFlusherRoom(t *testing.T) {
	// The ring of TestChannelMMSFlushWhileRingFull: A occupies it, and the
	// size flush of B+C does not fit beside it. OnFlush holds that flush
	// until Close is parked.
	flushing, resume := make(chan struct{}), make(chan struct{})
	onFlush := func(reason FlushReason, _ int) {
		if reason == FlushMMS {
			close(flushing)
			<-resume
		}
	}
	send, _, entered, gate := gatedPair(t, ChannelConfig{MMS: 800, RingSize: 1 << 10, OnFlush: onFlush})
	if err := send.Send(filled('a', 400)); err != nil {
		t.Fatal(err)
	}
	<-entered
	if err := send.Send(filled('b', 400)); err != nil {
		t.Fatal(err)
	}
	sentC := make(chan error, 1)
	go func() { sentC <- send.Send(filled('c', 400)) }()
	<-flushing
	closed := make(chan error, 1)
	go func() { closed <- send.Close() }()
	time.Sleep(5 * time.Millisecond) // Close is parked, waiting for the drain
	close(resume)
	time.Sleep(5 * time.Millisecond) // the flush is parked behind it
	close(gate)
	for _, w := range []struct {
		what string
		done chan error
	}{{"Close", closed}, {"the parked Send", sentC}} {
		select {
		case <-w.done:
		case <-time.After(3 * time.Second):
			t.Fatalf("%s still waiting 3 s after the receiver freed the ring", w.what)
		}
	}
}

func TestChannelBackpressureOnFullRing(t *testing.T) {
	// A ring smaller than the data volume forces Send/Flush to block until
	// the receiver drains; nothing may be lost.
	send, recvd := dialPair(t, ChannelConfig{MMS: 512, RingSize: 8 << 10})
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

// TestChannelCloseFlushesPending: Close ships what is pending and returns
// only once the receiver has consumed it, however slow the handler.
func TestChannelCloseFlushesPending(t *testing.T) {
	f := NewFabric(CostModel{})
	cfg := ChannelConfig{MMS: 1 << 20}
	ea, err := NewEndpoint(f, "a", cfg)
	if err != nil {
		t.Fatal(err)
	}
	eb, err := NewEndpoint(f, "b", cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ea.Close(); eb.Close() })
	var mu sync.Mutex
	var msgs []string
	eb.OnAccept(func(_ string, ch *Channel) {
		ch.SetHandler(func(m []byte) {
			time.Sleep(5 * time.Millisecond)
			mu.Lock()
			msgs = append(msgs, string(m))
			mu.Unlock()
		})
	})
	send, err := ea.Dial("b")
	if err != nil {
		t.Fatal(err)
	}
	// The first message leaves at once and keeps the receiver busy; the
	// rest are pending when Close is called.
	want := []string{"first", "second", "third", "final"}
	for _, m := range want {
		if err := send.Send([]byte(m)); err != nil {
			t.Fatal(err)
		}
	}
	if err := send.Close(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	got := append([]string(nil), msgs...)
	mu.Unlock()
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("delivered %q by the time Close returned, want %q", got, want)
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
	cfg := ChannelConfig{MMS: 2 << 10}
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
	send, recvd := dialPair(t, ChannelConfig{Mode: ModeOneSidedRead, MMS: 64})
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

// TestDoorbellNoLostWakeup: a link that has been idle — its receiver parked
// on the doorbell — carries one message, a thousand times over (twenty
// links, fifty rounds). MMS is nowhere near and no clock ships anything, so
// a message whose ring the receiver missed is never delivered at all: the
// next round waits for this one, and nothing else would wake the link.
func TestDoorbellNoLostWakeup(t *testing.T) {
	const links, rounds = 20, 50
	idle, bound := 50*time.Millisecond, 5*time.Millisecond
	if testing.Short() {
		idle = 5 * time.Millisecond
	}
	f := NewFabric(CostModel{})
	cfg := ChannelConfig{MMS: 1 << 20}
	sink, err := NewEndpoint(f, "sink", cfg)
	if err != nil {
		t.Fatal(err)
	}
	arrived := make(chan time.Duration, links)
	base := time.Now() // stamps are monotonic offsets from here
	sink.OnAccept(func(_ string, ch *Channel) {
		ch.SetHandler(func(m []byte) {
			arrived <- time.Since(base) - time.Duration(binary.LittleEndian.Uint64(m))
		})
	})
	var chans []*Channel
	for i := 0; i < links; i++ {
		ep, err := NewEndpoint(f, fmt.Sprintf("src%d", i), cfg)
		if err != nil {
			t.Fatal(err)
		}
		ch, err := ep.Dial("sink")
		if err != nil {
			t.Fatal(err)
		}
		chans = append(chans, ch)
		t.Cleanup(func() { ep.Close() })
	}
	t.Cleanup(func() { sink.Close() })
	var took []time.Duration
	for r := 0; r < rounds; r++ {
		time.Sleep(idle)
		var stamp [8]byte
		for _, ch := range chans {
			binary.LittleEndian.PutUint64(stamp[:], uint64(time.Since(base)))
			if err := ch.Send(stamp[:]); err != nil {
				t.Fatal(err)
			}
		}
		lost := time.After(5 * time.Second)
		for range chans {
			select {
			case d := <-arrived:
				took = append(took, d)
			case <-lost:
				t.Fatalf("round %d: %d of %d messages delivered: a receiver slept through the doorbell", r, len(took)-r*links, links)
			}
		}
	}
	// Every delivery is a few goroutine wake-ups away — tens of microseconds,
	// a millisecond for the last of twenty under the race detector. The box
	// this runs on takes a whole vCPU away for up to 60 ms a few times a
	// minute (an idle 1 ms sleeper sees the same), which can hold one round
	// of twenty back; anything systematic moves the 95th percentile.
	sort.Slice(took, func(i, j int) bool { return took[i] < took[j] })
	if p95 := took[len(took)*95/100]; p95 > bound {
		t.Fatalf("%d deliveries: median %v, p95 %v, slowest %v; want p95 under %v",
			len(took), took[len(took)/2], p95, took[len(took)-1], bound)
	}
	for _, ch := range chans {
		if st := ch.Stats(); st.IdleFlushes != rounds || st.WorkRequests != rounds {
			t.Fatalf("%d work requests, %d idle flushes; want %d idle only", st.WorkRequests, st.IdleFlushes, rounds)
		}
	}
}

// TestChannelNoStrandedRound: a burst of concurrent Sends followed by
// silence is delivered whole by the Sends and the receiver alone. Each round
// is eight Sends racing each other and the receiver's last empty poll, then
// nothing until all eight have arrived. A message nobody ships — pending,
// the link caught up, the flush semaphore free, the receiver parked — would
// wait for ever: such a round is counted and flushed out by hand so the run
// goes on, and any count above zero fails.
func TestChannelNoStrandedRound(t *testing.T) {
	const senders = 8
	rounds := 2000
	if testing.Short() {
		rounds = 300
	}
	for _, mode := range []Mode{ModeOneSidedRead, ModeTwoSided, ModeOneSidedWrite} {
		t.Run(mode.String(), func(t *testing.T) {
			// A small MMS: two-sided mode backs every one of its 128 receive
			// slots with 2×MMS, and growing that region mid-run stalls a SEND
			// long enough to pass for a stranded round.
			cfg := ChannelConfig{Mode: mode, MMS: 4 << 10}
			f := NewFabric(CostModel{})
			ea, err := NewEndpoint(f, "a", cfg)
			if err != nil {
				t.Fatal(err)
			}
			eb, err := NewEndpoint(f, "b", cfg)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { ea.Close(); eb.Close() })
			arrived := make(chan struct{}, senders)
			eb.OnAccept(func(_ string, ch *Channel) { ch.SetHandler(func([]byte) { arrived <- struct{}{} }) })
			send, err := ea.Dial("b")
			if err != nil {
				t.Fatal(err)
			}
			msg := []byte("one of eight senders")
			stranded := 0
			for r := 0; r < rounds; r++ {
				var wg sync.WaitGroup
				for i := 0; i < senders; i++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						if err := send.Send(msg); err != nil {
							t.Error(err)
						}
					}()
				}
				wg.Wait()
				lost := time.Now().Add(10 * time.Second)
				for got := 0; got < senders; {
					select {
					case <-arrived:
						got++
						continue
					case <-time.After(time.Second):
					}
					send.mu.Lock()
					pending := len(send.pending)
					send.mu.Unlock()
					if pending > 0 && len(send.flushSem) == 0 && send.caughtUp() {
						stranded++
						t.Logf("round %d: %d of %d arrived, then %d B pending with the link caught up and flushSem free",
							r, got, senders, pending)
						if err := send.Flush(); err != nil {
							t.Fatal(err)
						}
					} else if time.Now().After(lost) {
						t.Fatalf("round %d: %d of %d arrived in 10 s", r, got, senders)
					}
				}
			}
			if stranded > 0 {
				t.Fatalf("%d of %d rounds stranded a message", stranded, rounds)
			}
		})
	}
}

// TestTwoSidedSendArmsNoTimer: a two-sided Send that finds a window slot
// and a posted receive waits for neither, so neither the flush nor the
// emulated RNIC arms a timer, and nor do the reaper and the receive loop,
// which block on their completion queues until the channel closes.
func TestTwoSidedSendArmsNoTimer(t *testing.T) {
	send, recvd := dialPair(t, ChannelConfig{Mode: ModeTwoSided, MMS: 4 << 10})
	before := waitTimers.armed.Load()
	const total = 200
	for i := 0; i < total; i++ {
		if err := send.Send([]byte(fmt.Sprintf("msg-%04d", i))); err != nil {
			t.Fatal(err)
		}
		waitFor(t, i+1, recvd)
	}
	if n := waitTimers.armed.Load() - before; n != 0 {
		t.Fatalf("%d timers armed for %d sends through a free window", n, total)
	}
}

// TestCloseWhileReceiverParked: Close of either half returns while the
// receive loop sleeps on the doorbell.
func TestCloseWhileReceiverParked(t *testing.T) {
	for _, mode := range []Mode{ModeOneSidedRead, ModeOneSidedWrite} {
		for _, first := range []string{"sender", "receiver"} {
			t.Run(mode.String()+"/"+first+"-first", func(t *testing.T) {
				f := NewFabric(CostModel{})
				cfg := ChannelConfig{Mode: mode}
				ea, _ := NewEndpoint(f, "a", cfg)
				eb, _ := NewEndpoint(f, "b", cfg)
				got := make(chan string, 1)
				eb.OnAccept(func(_ string, ch *Channel) { ch.SetHandler(func(m []byte) { got <- string(m) }) })
				send, err := ea.Dial("b")
				if err != nil {
					t.Fatal(err)
				}
				if err := send.Send([]byte("x")); err != nil {
					t.Fatal(err)
				}
				<-got
				time.Sleep(2 * time.Millisecond) // the receiver has polled again, found nothing, and parked
				closed := make(chan error, 2)
				go func() {
					order := []*Endpoint{ea, eb}
					if first == "receiver" {
						order = []*Endpoint{eb, ea}
					}
					for _, e := range order {
						closed <- e.Close()
					}
				}()
				for i := 0; i < 2; i++ {
					select {
					case err := <-closed:
						if err != nil {
							t.Fatal(err)
						}
					case <-time.After(5 * time.Second):
						t.Fatal("Close hung with the receiver parked")
					}
				}
			})
		}
	}
}
