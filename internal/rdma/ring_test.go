package rdma

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"
	"unsafe"
)

// raceEnabled is set by race_test.go under -race.
var raceEnabled bool

func ringPair(t *testing.T, ringSize int) (prod *Ring, cons *RemoteRing, cq *CQ) {
	t.Helper()
	f := NewFabric(CostModel{})
	da, _ := f.NewDevice("prod")
	db, _ := f.NewDevice("cons")
	pdA, pdB := da.AllocPD(), db.AllocPD()
	mr, err := RegisterMemory(pdA, ringSize, AccessRemoteRead|AccessRemoteWrite)
	if err != nil {
		t.Fatal(err)
	}
	prod, err = NewRing(mr)
	if err != nil {
		t.Fatal(err)
	}
	stage, _ := RegisterMemory(pdB, ringSize, AccessLocalWrite)
	cq = NewCQ(64)
	qpB := CreateQP(pdB, cq, NewCQ(1), QPCap{})
	qpA := CreateQP(pdA, NewCQ(1), NewCQ(1), QPCap{})
	if err := ConnectPair(qpA, qpB); err != nil {
		t.Fatal(err)
	}
	cons, err = NewRemoteRing(qpB, stage, mr.RKey(), prod.DataSize())
	if err != nil {
		t.Fatal(err)
	}
	return prod, cons, cq
}

func TestRingAppendPollRoundTrip(t *testing.T) {
	prod, cons, cq := ringPair(t, 4096)
	msgs := [][]byte{[]byte("alpha"), []byte("beta"), []byte("gamma-gamma")}
	for _, m := range msgs {
		if err := prod.Append(m); err != nil {
			t.Fatal(err)
		}
	}
	var got [][]byte
	n, err := cons.Poll(cq, func(f []byte) { got = append(got, append([]byte(nil), f...)) })
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 || len(got) != 3 {
		t.Fatalf("polled %d frames", n)
	}
	for i := range msgs {
		if !bytes.Equal(got[i], msgs[i]) {
			t.Fatalf("frame %d: %q != %q", i, got[i], msgs[i])
		}
	}
	// Idle poll returns zero.
	if n, err := cons.Poll(cq, func([]byte) {}); err != nil || n != 0 {
		t.Fatalf("idle poll: %d, %v", n, err)
	}
}

func TestRingTailFeedbackFreesSpace(t *testing.T) {
	prod, cons, cq := ringPair(t, 16+128) // tiny 128-byte data area
	frame := make([]byte, 50)
	if err := prod.Append(frame); err != nil {
		t.Fatal(err)
	}
	if err := prod.Append(frame); err != nil {
		t.Fatal(err)
	}
	// 2*(50+4)=108 used, 20 free: third append must fail.
	if err := prod.Append(frame); err != ErrRingFull {
		t.Fatalf("expected ErrRingFull, got %v", err)
	}
	// Consuming frees space (the consumer WRITEs the tail back).
	if _, err := cons.Poll(cq, func([]byte) {}); err != nil {
		t.Fatal(err)
	}
	if err := prod.Append(frame); err != nil {
		t.Fatalf("append after consume: %v", err)
	}
}

// TestRingCachedTailNeverMovesBack: a pressure reader that read the tail
// word before the consumer advanced it, and stores what it read after a
// flusher refreshed, must not shrink the room the flusher saw: the flusher
// would park for a tail feedback that is not coming.
func TestRingCachedTailNeverMovesBack(t *testing.T) {
	prod, cons, cq := ringPair(t, 16+128)
	frame := make([]byte, 50)
	for i := 0; i < 2; i++ {
		if err := prod.Append(frame); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := cons.Poll(cq, func([]byte) {}); err != nil {
		t.Fatal(err)
	}
	if free, err := prod.Free(); err != nil || free != 128 {
		t.Fatalf("free after consume = %d, %v; want 128", free, err)
	}
	// The slow reader's view of the tail word: before the consume.
	var stale [8]byte
	if err := prod.mr.WriteAt(stale[:], ringTailOff); err != nil {
		t.Fatal(err)
	}
	if occ := prod.Occupancy(); occ != 0 {
		t.Fatalf("occupancy %d after a stale tail read, want 0", occ)
	}
	if err := prod.Append(make([]byte, 120)); err != nil {
		t.Fatalf("append into the room already seen: %v", err)
	}
}

func TestRingWrapAround(t *testing.T) {
	prod, cons, cq := ringPair(t, 16+256)
	r := rand.New(rand.NewSource(5))
	var sent, recv [][]byte
	for round := 0; round < 200; round++ {
		frame := make([]byte, 1+r.Intn(60))
		r.Read(frame)
		if err := prod.Append(frame); err == ErrRingFull {
			if _, err := cons.Poll(cq, func(f []byte) { recv = append(recv, append([]byte(nil), f...)) }); err != nil {
				t.Fatal(err)
			}
			if err := prod.Append(frame); err != nil {
				t.Fatal(err)
			}
		} else if err != nil {
			t.Fatal(err)
		}
		sent = append(sent, frame)
	}
	if _, err := cons.Poll(cq, func(f []byte) { recv = append(recv, append([]byte(nil), f...)) }); err != nil {
		t.Fatal(err)
	}
	if len(recv) != len(sent) {
		t.Fatalf("received %d of %d frames", len(recv), len(sent))
	}
	for i := range sent {
		if !bytes.Equal(sent[i], recv[i]) {
			t.Fatalf("frame %d corrupted across wrap", i)
		}
	}
}

// TestRingExactlyFullOccupancy drives the ring to precisely zero free
// bytes with the last frame wrapping the data area, and verifies the
// full/empty ambiguity is resolved correctly: Occupancy reports the whole
// data area, the next append (even an empty frame) fails with ErrRingFull,
// and the wrapped frames survive a Poll byte-identical.
func TestRingExactlyFullOccupancy(t *testing.T) {
	prod, cons, cq := ringPair(t, 16+128) // 128-byte data area
	// Offset head/tail by one consumed frame so the fill below wraps.
	first := make([]byte, 20)
	for i := range first {
		first[i] = 0x10 + byte(i)
	}
	if err := prod.Append(first); err != nil {
		t.Fatal(err)
	}
	if n, err := cons.Poll(cq, func([]byte) {}); err != nil || n != 1 {
		t.Fatalf("offset poll: %d, %v", n, err)
	}
	// head = tail = 24. Two 60-byte frames are 2*(4+60) = 128 bytes: an
	// exact fill, with the second frame's bytes crossing the wrap point.
	frames := [][]byte{make([]byte, 60), make([]byte, 60)}
	for fi, f := range frames {
		for i := range f {
			f[i] = byte(fi)*0x40 + byte(i)
		}
		if err := prod.Append(f); err != nil {
			t.Fatalf("fill append %d: %v", fi, err)
		}
	}
	free, err := prod.Free()
	if err != nil {
		t.Fatal(err)
	}
	if free != 0 {
		t.Fatalf("free = %d at exact fill, want 0", free)
	}
	if occ := prod.Occupancy(); occ != prod.DataSize() {
		t.Fatalf("occupancy = %d at exact fill, want %d", occ, prod.DataSize())
	}
	// head-tail == size must read as full, not empty: even a zero-byte
	// frame (4-byte header) has no room.
	if err := prod.Append(nil); err != ErrRingFull {
		t.Fatalf("append at exact fill: %v, want ErrRingFull", err)
	}
	var got [][]byte
	n, err := cons.Poll(cq, func(f []byte) { got = append(got, append([]byte(nil), f...)) })
	if err != nil || n != 2 {
		t.Fatalf("drain poll: %d, %v", n, err)
	}
	for i := range frames {
		if !bytes.Equal(got[i], frames[i]) {
			t.Fatalf("frame %d corrupted across exact-fill wrap:\n got %x\nwant %x", i, got[i], frames[i])
		}
	}
	// The tail feedback reopened the ring.
	if err := prod.Append(first); err != nil {
		t.Fatalf("append after drain: %v", err)
	}
}

func TestRingOversizeFrame(t *testing.T) {
	prod, _, _ := ringPair(t, 16+64)
	if err := prod.Append(make([]byte, 100)); err == nil || err == ErrRingFull {
		t.Fatalf("oversize frame: %v", err)
	}
}

func TestRingTooSmallMR(t *testing.T) {
	f := NewFabric(CostModel{})
	d, _ := f.NewDevice("x")
	mr, _ := RegisterMemory(d.AllocPD(), 32, 0)
	if _, err := NewRing(mr); err == nil {
		t.Fatal("32-byte MR accepted as ring")
	}
}

func TestRingLocalConsume(t *testing.T) {
	f := NewFabric(CostModel{})
	d, _ := f.NewDevice("x")
	mr, _ := RegisterMemory(d.AllocPD(), 4096, 0)
	ring, err := NewRing(mr)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := ring.Append([]byte(fmt.Sprintf("m%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	var got []string
	n, err := ring.LocalConsume(func(f []byte) { got = append(got, string(f)) })
	if err != nil || n != 10 {
		t.Fatalf("consume: %d, %v", n, err)
	}
	for i, s := range got {
		if s != fmt.Sprintf("m%02d", i) {
			t.Fatalf("frame %d = %q", i, s)
		}
	}
	// Free space is reclaimed.
	free, err := ring.Free()
	if err != nil {
		t.Fatal(err)
	}
	if free != ring.DataSize() {
		t.Fatalf("free %d after full consume, want %d", free, ring.DataSize())
	}
}

func TestRemoteRingStageTooSmall(t *testing.T) {
	f := NewFabric(CostModel{})
	da, _ := f.NewDevice("a")
	db, _ := f.NewDevice("b")
	stage, _ := RegisterMemory(db.AllocPD(), 64, AccessLocalWrite)
	qp := CreateQP(db.AllocPD(), NewCQ(1), NewCQ(1), QPCap{})
	_ = da
	if _, err := NewRemoteRing(qp, stage, 1, 4096); err == nil {
		t.Fatal("undersized staging MR accepted")
	}
}

func TestRingConcurrentProducerConsumer(t *testing.T) {
	prod, cons, cq := ringPair(t, 16+1024)
	const total = 500
	errc := make(chan error, 1)
	go func() {
		for i := 0; i < total; i++ {
			frame := []byte(fmt.Sprintf("msg-%04d", i))
			for {
				err := prod.Append(frame)
				if err == nil {
					break
				}
				if err != ErrRingFull {
					errc <- err
					return
				}
				time.Sleep(10 * time.Microsecond)
			}
		}
		errc <- nil
	}()
	var got int
	deadline := time.Now().Add(10 * time.Second)
	for got < total && time.Now().Before(deadline) {
		n, err := cons.Poll(cq, func(f []byte) {
			want := fmt.Sprintf("msg-%04d", got)
			if string(f) != want {
				t.Errorf("frame %d = %q, want %q", got, f, want)
			}
			got++
		})
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			time.Sleep(10 * time.Microsecond)
		}
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	if got != total {
		t.Fatalf("consumed %d of %d", got, total)
	}
}

// TestQuickRingRandomInterleavings: arbitrary interleavings of appends and
// polls with random frame sizes never corrupt, reorder, or drop frames.
func TestQuickRingRandomInterleavings(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	run := func(seed int64) bool {
		r.Seed(seed)
		ringSize := 16 + 128 + r.Intn(512)
		prod, cons, cq := ringPair(t, ringSize)
		next := byte(0)   // next frame id to produce
		expect := byte(0) // next frame id the consumer must see
		ok := true
		for step := 0; step < 120 && ok; step++ {
			if r.Intn(2) == 0 {
				frame := make([]byte, 1+r.Intn((ringSize-16)/2-4))
				frame[0] = next
				if err := prod.Append(frame); err == nil {
					next++
				} else if err != ErrRingFull {
					return false
				}
			} else {
				_, err := cons.Poll(cq, func(f []byte) {
					if len(f) < 1 || f[0] != expect {
						ok = false
						return
					}
					expect++
				})
				if err != nil {
					return false
				}
			}
		}
		// Drain the rest.
		if _, err := cons.Poll(cq, func(f []byte) {
			if len(f) < 1 || f[0] != expect {
				ok = false
				return
			}
			expect++
		}); err != nil {
			return false
		}
		return ok && expect == next
	}
	for seed := int64(0); seed < 60; seed++ {
		if !run(seed) {
			t.Fatalf("seed %d: ring violated FIFO/integrity", seed)
		}
	}
}

// TestRingEmptyPollAllocatesNothing: a poll that finds no new frame is one
// 8-byte READ of the head, region to region, and allocates nothing; one
// that finds frames cuts the one buffer they share from the ring's receive
// chunk, so fifty such polls allocate less than once each.
func TestRingEmptyPollAllocatesNothing(t *testing.T) {
	prod, cons, cq := ringPair(t, 4096)
	nop := func([]byte) {}
	if _, err := cons.Poll(cq, nop); err != nil { // backs the staging region
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(200, func() {
		if n, err := cons.Poll(cq, nop); n != 0 || err != nil {
			t.Fatalf("idle poll: %d, %v", n, err)
		}
	}); avg != 0 {
		t.Fatalf("an empty Poll allocates %v times", avg)
	}
	frames, frame := 0, []byte("eight frames, one buffer")
	if avg := testing.AllocsPerRun(50, func() {
		for i := 0; i < 8; i++ {
			if err := prod.Append(frame); err != nil {
				t.Fatal(err)
			}
		}
		n, err := cons.Poll(cq, nop)
		if err != nil {
			t.Fatal(err)
		}
		frames += n
	}); avg != 0 && !raceEnabled {
		t.Fatalf("a Poll that found 8 frames allocates %v times, want under once", avg)
	}
	if frames != 8*51 {
		t.Fatalf("polled %d frames", frames)
	}
}

// TestRingFramesShareOnePollBuffer: the frames of one poll are consecutive
// sub-slices of a single buffer, each clipped to its own length.
func TestRingFramesShareOnePollBuffer(t *testing.T) {
	prod, cons, cq := ringPair(t, 16+256)
	// Park head and tail near the end of the data area so the range wraps.
	if err := prod.Append(make([]byte, 200)); err != nil {
		t.Fatal(err)
	}
	if _, err := cons.Poll(cq, func([]byte) {}); err != nil {
		t.Fatal(err)
	}
	want := []string{"wraps-around-the-end-of-the-data-area", "second", ""}
	for _, w := range want {
		if err := prod.Append([]byte(w)); err != nil {
			t.Fatal(err)
		}
	}
	var got [][]byte
	if _, err := cons.Poll(cq, func(f []byte) { got = append(got, f) }); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("polled %d frames", len(got))
	}
	for i, f := range got {
		if string(f) != want[i] || cap(f) != len(f) {
			t.Fatalf("frame %d = %q (cap %d)", i, f, cap(f))
		}
		if i > 0 && len(f) > 0 {
			prev := got[i-1]
			if uintptr(unsafe.Pointer(&f[0])) != uintptr(unsafe.Pointer(&prev[0]))+uintptr(len(prev)+4) {
				t.Fatalf("frame %d does not follow frame %d in the poll's buffer", i, i-1)
			}
		}
	}
}
