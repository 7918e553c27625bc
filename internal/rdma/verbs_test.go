package rdma

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"
)

// pair builds two connected QPs on two devices of a fresh fabric.
func pair(t *testing.T, cost CostModel) (pdA, pdB *PD, qpA, qpB *QP, cqA, cqB, rcqA, rcqB *CQ) {
	t.Helper()
	f := NewFabric(cost)
	da, err := f.NewDevice("a")
	if err != nil {
		t.Fatal(err)
	}
	db, err := f.NewDevice("b")
	if err != nil {
		t.Fatal(err)
	}
	pdA, pdB = da.AllocPD(), db.AllocPD()
	// Deep CQs: the emulated RNIC engine blocks on a full CQ (documented
	// backpressure), so tests that post many WRs before reaping need room.
	cqA, cqB = NewCQ(256), NewCQ(256)
	rcqA, rcqB = NewCQ(256), NewCQ(256)
	qpA = CreateQP(pdA, cqA, rcqA, QPCap{})
	qpB = CreateQP(pdB, cqB, rcqB, QPCap{})
	if err := ConnectPair(qpA, qpB); err != nil {
		t.Fatal(err)
	}
	return
}

func TestDeviceNameCollision(t *testing.T) {
	f := NewFabric(CostModel{})
	if _, err := f.NewDevice("x"); err != nil {
		t.Fatal(err)
	}
	if _, err := f.NewDevice("x"); err == nil {
		t.Fatal("duplicate device name accepted")
	}
	if _, ok := f.Device("x"); !ok {
		t.Fatal("lookup failed")
	}
	if _, ok := f.Device("y"); ok {
		t.Fatal("phantom device")
	}
}

func TestMRBounds(t *testing.T) {
	f := NewFabric(CostModel{})
	d, _ := f.NewDevice("a")
	pd := d.AllocPD()
	mr, err := RegisterMemory(pd, 128, AccessRemoteRead)
	if err != nil {
		t.Fatal(err)
	}
	if mr.Len() != 128 || mr.LKey() == 0 || mr.RKey() == 0 {
		t.Fatalf("mr: %+v", mr)
	}
	buf := make([]byte, 64)
	if err := mr.ReadAt(buf, 65); err == nil {
		t.Fatal("out-of-bounds read accepted")
	}
	if err := mr.WriteAt(buf, -1); err == nil {
		t.Fatal("negative offset accepted")
	}
	if err := mr.WriteAt(buf, 64); err != nil {
		t.Fatal(err)
	}
	if _, err := RegisterMemory(pd, 0, 0); err == nil {
		t.Fatal("zero-length registration accepted")
	}
	mr.Deregister()
	if _, err := d.lookupMR(mr.RKey()); err == nil {
		t.Fatal("deregistered MR still resolvable")
	}
}

func TestSendRecv(t *testing.T) {
	pdA, pdB, qpA, qpB, cqA, _, _, rcqB := pair(t, CostModel{})
	_ = pdA
	recvMR, _ := RegisterMemory(pdB, 1024, AccessLocalWrite)
	if err := qpB.PostRecv(WR{WRID: 7, Op: OpRecv, Local: SGE{MR: recvMR, Offset: 0, Length: 1024}}); err != nil {
		t.Fatal(err)
	}
	msg := []byte("hello rdma")
	if err := qpA.PostSend(WR{WRID: 1, Op: OpSend, Inline: msg}); err != nil {
		t.Fatal(err)
	}
	wc, ok := cqA.Wait(time.Second)
	if !ok || wc.Status != StatusOK || wc.Op != OpSend {
		t.Fatalf("send wc: %+v ok=%v", wc, ok)
	}
	rwc, ok := rcqB.Wait(time.Second)
	if !ok || rwc.Status != StatusOK || rwc.WRID != 7 || rwc.Bytes != len(msg) {
		t.Fatalf("recv wc: %+v ok=%v", rwc, ok)
	}
	got := make([]byte, len(msg))
	if err := recvMR.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("received %q", got)
	}
}

func TestSendFromMR(t *testing.T) {
	pdA, pdB, qpA, qpB, cqA, _, _, rcqB := pair(t, CostModel{})
	srcMR, _ := RegisterMemory(pdA, 64, 0)
	if err := srcMR.WriteAt([]byte("payload"), 8); err != nil {
		t.Fatal(err)
	}
	recvMR, _ := RegisterMemory(pdB, 64, AccessLocalWrite)
	qpB.PostRecv(WR{WRID: 1, Op: OpRecv, Local: SGE{MR: recvMR, Length: 64}})
	if err := qpA.PostSend(WR{WRID: 2, Op: OpSend, Local: SGE{MR: srcMR, Offset: 8, Length: 7}}); err != nil {
		t.Fatal(err)
	}
	if wc, ok := cqA.Wait(time.Second); !ok || wc.Status != StatusOK {
		t.Fatalf("send wc %+v", wc)
	}
	if wc, ok := rcqB.Wait(time.Second); !ok || wc.Bytes != 7 {
		t.Fatalf("recv wc %+v", wc)
	}
	got := make([]byte, 7)
	recvMR.ReadAt(got, 0)
	if string(got) != "payload" {
		t.Fatalf("got %q", got)
	}
}

func TestRecvOrderingPreserved(t *testing.T) {
	// RC ordering: receive completions arrive in send order.
	pdA, pdB, qpA, qpB, _, _, _, rcqB := pair(t, CostModel{})
	_ = pdA
	recvMR, _ := RegisterMemory(pdB, 64*100, AccessLocalWrite)
	for i := 0; i < 100; i++ {
		if err := qpB.PostRecv(WR{WRID: uint64(i), Op: OpRecv,
			Local: SGE{MR: recvMR, Offset: i * 64, Length: 64}}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		msg := []byte{byte(i)}
		for {
			if err := qpA.PostSend(WR{WRID: uint64(i), Op: OpSend, Inline: msg}); err == nil {
				break
			}
			time.Sleep(time.Microsecond) // SQ full; retry
		}
	}
	for i := 0; i < 100; i++ {
		wc, ok := rcqB.Wait(time.Second)
		if !ok {
			t.Fatalf("timeout at %d", i)
		}
		if wc.WRID != uint64(i) {
			t.Fatalf("completion %d has WRID %d (ordering broken)", i, wc.WRID)
		}
		var b [1]byte
		recvMR.ReadAt(b[:], int(wc.WRID)*64)
		if b[0] != byte(i) {
			t.Fatalf("slot %d holds %d", i, b[0])
		}
	}
}

func TestOneSidedWriteRead(t *testing.T) {
	pdA, pdB, qpA, _, cqA, _, _, _ := pair(t, CostModel{})
	remoteMR, _ := RegisterMemory(pdB, 256, AccessRemoteRead|AccessRemoteWrite)
	localMR, _ := RegisterMemory(pdA, 256, AccessLocalWrite)

	// WRITE inline data into remote memory.
	if err := qpA.PostSend(WR{WRID: 1, Op: OpWrite, Inline: []byte("remote-data"),
		Remote: RemoteAddr{RKey: remoteMR.RKey(), Offset: 16}}); err != nil {
		t.Fatal(err)
	}
	if wc, ok := cqA.Wait(time.Second); !ok || wc.Status != StatusOK {
		t.Fatalf("write wc %+v", wc)
	}
	got := make([]byte, 11)
	remoteMR.ReadAt(got, 16)
	if string(got) != "remote-data" {
		t.Fatalf("remote holds %q", got)
	}

	// READ it back into a local MR.
	if err := qpA.PostSend(WR{WRID: 2, Op: OpRead,
		Local:  SGE{MR: localMR, Offset: 32, Length: 11},
		Remote: RemoteAddr{RKey: remoteMR.RKey(), Offset: 16}}); err != nil {
		t.Fatal(err)
	}
	if wc, ok := cqA.Wait(time.Second); !ok || wc.Status != StatusOK || wc.Bytes != 11 {
		t.Fatalf("read wc %+v", wc)
	}
	localMR.ReadAt(got, 32)
	if string(got) != "remote-data" {
		t.Fatalf("local holds %q", got)
	}
}

func TestOneSidedAccessControl(t *testing.T) {
	pdA, pdB, qpA, _, cqA, _, _, _ := pair(t, CostModel{})
	_ = pdA
	// Registered WITHOUT remote access rights.
	lockedMR, _ := RegisterMemory(pdB, 64, 0)
	if err := qpA.PostSend(WR{WRID: 1, Op: OpWrite, Inline: []byte("x"),
		Remote: RemoteAddr{RKey: lockedMR.RKey(), Offset: 0}}); err != nil {
		t.Fatal(err)
	}
	wc, ok := cqA.Wait(time.Second)
	if !ok || wc.Status != StatusErr {
		t.Fatalf("write to protected MR: %+v", wc)
	}
	// Unknown rkey.
	qpA.PostSend(WR{WRID: 2, Op: OpWrite, Inline: []byte("x"),
		Remote: RemoteAddr{RKey: 9999, Offset: 0}})
	wc, ok = cqA.Wait(time.Second)
	if !ok || wc.Status != StatusErr {
		t.Fatalf("write to bogus rkey: %+v", wc)
	}
}

func TestRNRTimeout(t *testing.T) {
	// No receive posted: the send completes with RNR after the timeout.
	_, _, qpA, _, cqA, _, _, _ := pair(t, CostModel{RNRTimeout: 20 * time.Millisecond})
	if err := qpA.PostSend(WR{WRID: 1, Op: OpSend, Inline: []byte("x")}); err != nil {
		t.Fatal(err)
	}
	wc, ok := cqA.Wait(time.Second)
	if !ok || wc.Status != StatusRNR {
		t.Fatalf("wc %+v", wc)
	}
}

func TestPostToUnconnectedQP(t *testing.T) {
	f := NewFabric(CostModel{})
	d, _ := f.NewDevice("a")
	pd := d.AllocPD()
	qp := CreateQP(pd, NewCQ(1), NewCQ(1), QPCap{})
	if err := qp.PostSend(WR{Op: OpSend, Inline: []byte("x")}); err == nil {
		t.Fatal("post to unconnected QP accepted")
	}
}

func TestPDMismatchRejected(t *testing.T) {
	pdA, pdB, qpA, _, _, _, _, _ := pair(t, CostModel{})
	_ = pdA
	foreignMR, _ := RegisterMemory(pdB, 64, 0)
	if err := qpA.PostSend(WR{Op: OpSend, Local: SGE{MR: foreignMR, Length: 8}}); err == nil {
		t.Fatal("cross-PD post accepted")
	}
}

func TestCloseFlushesOutstanding(t *testing.T) {
	pdA, pdB, qpA, qpB, cqA, _, _, rcqB := pair(t, CostModel{RNRTimeout: 5 * time.Second})
	_, _ = pdA, pdB
	recvMR, _ := RegisterMemory(pdB, 64, AccessLocalWrite)
	qpB.PostRecv(WR{WRID: 3, Op: OpRecv, Local: SGE{MR: recvMR, Length: 64}})
	qpB.Close()
	// The posted receive flushes.
	wc, ok := rcqB.Wait(time.Second)
	if !ok || wc.Status != StatusFlush || wc.WRID != 3 {
		t.Fatalf("recv flush wc %+v ok=%v", wc, ok)
	}
	// A send to the closed peer errors out.
	if err := qpA.PostSend(WR{WRID: 9, Op: OpSend, Inline: []byte("x")}); err != nil {
		t.Fatal(err)
	}
	wc, ok = cqA.Wait(2 * time.Second)
	if !ok || wc.Status == StatusOK {
		t.Fatalf("send to closed peer: %+v ok=%v", wc, ok)
	}
	// Posting on the closed QP is rejected.
	if err := qpB.PostRecv(WR{Op: OpRecv, Local: SGE{MR: recvMR, Length: 64}}); err == nil {
		t.Fatal("post on closed QP accepted")
	}
}

func TestRecvBufferTooSmall(t *testing.T) {
	pdA, pdB, qpA, qpB, cqA, _, _, rcqB := pair(t, CostModel{})
	_ = pdA
	recvMR, _ := RegisterMemory(pdB, 64, AccessLocalWrite)
	qpB.PostRecv(WR{WRID: 1, Op: OpRecv, Local: SGE{MR: recvMR, Length: 4}})
	qpA.PostSend(WR{WRID: 2, Op: OpSend, Inline: []byte("too large for slot")})
	if wc, ok := cqA.Wait(time.Second); !ok || wc.Status != StatusErr {
		t.Fatalf("send wc %+v", wc)
	}
	if wc, ok := rcqB.Wait(time.Second); !ok || wc.Status != StatusErr {
		t.Fatalf("recv wc %+v", wc)
	}
}

func TestCostModelDelaysTransfer(t *testing.T) {
	// 1 MB at 100 MB/s should take ~10ms.
	cost := CostModel{BytesPerSecond: 100 << 20}
	pdA, pdB, qpA, qpB, cqA, _, _, _ := pair(t, cost)
	_ = pdA
	recvMR, _ := RegisterMemory(pdB, 1<<20, AccessLocalWrite)
	qpB.PostRecv(WR{WRID: 1, Op: OpRecv, Local: SGE{MR: recvMR, Length: 1 << 20}})
	payload := make([]byte, 1<<20)
	t0 := time.Now()
	qpA.PostSend(WR{WRID: 2, Op: OpSend, Inline: payload})
	wc, ok := cqA.Wait(5 * time.Second)
	if !ok || wc.Status != StatusOK {
		t.Fatalf("wc %+v", wc)
	}
	if el := time.Since(t0); el < 5*time.Millisecond {
		t.Fatalf("transfer finished in %v; cost model not applied", el)
	}
}

func TestOpcodeStatusStrings(t *testing.T) {
	if OpSend.String() != "SEND" || OpRecv.String() != "RECV" || OpWrite.String() != "WRITE" || OpRead.String() != "READ" {
		t.Fatal("Opcode strings")
	}
	if StatusOK.String() != "OK" || StatusRNR.String() != "RNR" || StatusErr.String() != "ERR" || StatusFlush.String() != "FLUSH" {
		t.Fatal("Status strings")
	}
	if Opcode(99).String() == "" || Status(99).String() == "" {
		t.Fatal("unknown enums must still render")
	}
}

func TestCQPoll(t *testing.T) {
	cq := NewCQ(8)
	for i := 0; i < 5; i++ {
		cq.push(WC{WRID: uint64(i)})
	}
	got := cq.Poll(3)
	if len(got) != 3 || got[0].WRID != 0 || got[2].WRID != 2 {
		t.Fatalf("poll %v", got)
	}
	got = cq.Poll(10)
	if len(got) != 2 {
		t.Fatalf("second poll %v", got)
	}
	if _, ok := cq.Wait(10 * time.Millisecond); ok {
		t.Fatal("empty CQ wait succeeded")
	}
}

// TestCQWaitReadyPathAllocatesNothing: a completion that is already queued
// must come back without arming a timeout timer, and a wait that does block
// must leave no timer behind it (the timer is pooled and reused).
func TestCQWaitReadyPathAllocatesNothing(t *testing.T) {
	cq := NewCQ(1)
	ready := testing.AllocsPerRun(200, func() {
		cq.push(WC{WRID: 1})
		if _, ok := cq.Wait(blockTimeout); !ok {
			t.Fatal("queued completion not returned")
		}
	})
	if ready != 0 {
		t.Fatalf("CQ.Wait on a ready completion allocates %.1f objects per call, want 0", ready)
	}
	// The blocking path: the completion arrives while Wait is parked.
	for i := 0; i < 3; i++ {
		go func() {
			time.Sleep(time.Millisecond)
			cq.push(WC{WRID: 2})
		}()
		if wc, ok := cq.Wait(blockTimeout); !ok || wc.WRID != 2 {
			t.Fatalf("blocked wait = %+v, %v", wc, ok)
		}
	}
	if _, ok := cq.Wait(time.Millisecond); ok {
		t.Fatal("empty CQ wait succeeded after timer reuse")
	}
}

func TestPostErrorSentinels(t *testing.T) {
	// Typed sentinels under unchanged message text: retry logic classifies
	// with errors.Is while logs keep the exact pre-sentinel wording.
	f := NewFabric(CostModel{})
	d, _ := f.NewDevice("sentinel")
	pd := d.AllocPD()

	unconnected := CreateQP(pd, NewCQ(1), NewCQ(1), QPCap{})
	err := unconnected.PostSend(WR{Op: OpSend, Inline: []byte("x")})
	if !errors.Is(err, ErrNotConnected) {
		t.Fatalf("unconnected PostSend = %v, want ErrNotConnected", err)
	}
	if want := fmt.Sprintf("rdma: QP %d not connected", unconnected.Num()); err.Error() != want {
		t.Fatalf("message changed: %q, want %q", err.Error(), want)
	}

	// SendDepth 1 and no receive buffer at the peer: the engine stalls in
	// RNR wait, so repeated posts must overflow the send queue.
	f2 := NewFabric(CostModel{RNRTimeout: 5 * time.Second})
	da, _ := f2.NewDevice("a")
	db, _ := f2.NewDevice("b")
	qpA := CreateQP(da.AllocPD(), NewCQ(8), NewCQ(8), QPCap{SendDepth: 1})
	qpB := CreateQP(db.AllocPD(), NewCQ(8), NewCQ(8), QPCap{RecvDepth: 1})
	if err := ConnectPair(qpA, qpB); err != nil {
		t.Fatal(err)
	}
	var sqErr error
	for i := 0; i < 10 && sqErr == nil; i++ {
		sqErr = qpA.PostSend(WR{WRID: uint64(i), Op: OpSend, Inline: []byte("x")})
	}
	if !errors.Is(sqErr, ErrSQFull) {
		t.Fatalf("overflowing posts = %v, want ErrSQFull", sqErr)
	}
	if want := fmt.Sprintf("rdma: QP %d send queue full", qpA.Num()); sqErr.Error() != want {
		t.Fatalf("message changed: %q, want %q", sqErr.Error(), want)
	}

	// RecvDepth 1: a second posted buffer overflows the receive queue.
	rqMR, _ := RegisterMemory(qpB.pd, 64, AccessLocalWrite)
	var rqErr error
	for i := 0; i < 10 && rqErr == nil; i++ {
		rqErr = qpB.PostRecv(WR{WRID: uint64(i), Op: OpRecv, Local: SGE{MR: rqMR, Length: 64}})
	}
	if !errors.Is(rqErr, ErrRQFull) {
		t.Fatalf("overflowing recvs = %v, want ErrRQFull", rqErr)
	}

	qpA.Close()
	err = qpA.PostSend(WR{Op: OpSend, Inline: []byte("x")})
	if !errors.Is(err, ErrQPClosed) {
		t.Fatalf("closed PostSend = %v, want ErrQPClosed", err)
	}
	if want := fmt.Sprintf("rdma: QP %d closed", qpA.Num()); err.Error() != want {
		t.Fatalf("message changed: %q, want %q", err.Error(), want)
	}
	if err := qpA.PostRecv(WR{Op: OpRecv}); !errors.Is(err, ErrQPClosed) {
		t.Fatalf("closed PostRecv = %v, want ErrQPClosed", err)
	}
}

// TestReadFaultsCompleteInError: a one-sided READ copies region to region
// under the checks of both sides — remote-read access and bounds on the
// source, bounds on the sink — and a fault completes the request with
// StatusErr, moving nothing.
func TestReadFaultsCompleteInError(t *testing.T) {
	pdA, pdB, qpA, _, cqA, _, _, _ := pair(t, CostModel{})
	src, _ := RegisterMemory(pdB, 64, AccessRemoteRead)
	locked, _ := RegisterMemory(pdB, 64, AccessRemoteWrite) // no remote read
	sink, _ := RegisterMemory(pdA, 32, AccessLocalWrite)
	if err := src.WriteAt(bytes.Repeat([]byte{7}, 64), 0); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		wr   WR
		ok   bool
	}{
		{"in bounds", WR{Op: OpRead, Local: SGE{MR: sink, Offset: 8, Length: 16}, Remote: RemoteAddr{RKey: src.RKey(), Offset: 48}}, true},
		{"source overrun", WR{Op: OpRead, Local: SGE{MR: sink, Length: 16}, Remote: RemoteAddr{RKey: src.RKey(), Offset: 56}}, false},
		{"negative source offset", WR{Op: OpRead, Local: SGE{MR: sink, Length: 16}, Remote: RemoteAddr{RKey: src.RKey(), Offset: -1}}, false},
		{"sink overrun", WR{Op: OpRead, Local: SGE{MR: sink, Offset: 24, Length: 16}, Remote: RemoteAddr{RKey: src.RKey()}}, false},
		{"not remote-readable", WR{Op: OpRead, Local: SGE{MR: sink, Length: 16}, Remote: RemoteAddr{RKey: locked.RKey()}}, false},
		{"unknown rkey", WR{Op: OpRead, Local: SGE{MR: sink, Length: 16}, Remote: RemoteAddr{RKey: 9999}}, false},
		{"no sink", WR{Op: OpRead, Remote: RemoteAddr{RKey: src.RKey()}}, false},
	}
	for i, tc := range cases {
		tc.wr.WRID = uint64(i)
		if err := qpA.PostSend(tc.wr); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		wc, ok := cqA.Wait(time.Second)
		if !ok || wc.WRID != uint64(i) {
			t.Fatalf("%s: completion %+v, %v", tc.name, wc, ok)
		}
		if tc.ok && (wc.Status != StatusOK || wc.Bytes != 16) {
			t.Fatalf("%s: %+v", tc.name, wc)
		}
		if !tc.ok && (wc.Status != StatusErr || wc.Err == nil || wc.Bytes != 0) {
			t.Fatalf("%s: completed %+v, want StatusErr", tc.name, wc)
		}
	}
	// Only the in-bounds READ moved anything.
	got := make([]byte, 32)
	if err := sink.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	want := make([]byte, 32)
	copy(want[8:24], bytes.Repeat([]byte{7}, 16))
	if !bytes.Equal(got, want) {
		t.Fatalf("sink = %v", got)
	}
}
