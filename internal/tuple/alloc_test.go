package tuple

import (
	"bytes"
	"sync"
	"testing"
)

// The zero-allocation guarantees of the hot path (DESIGN §11): once an
// encoder or decode scratch is warm, steady-state encode/decode performs no
// per-message allocation. These tests enforce the acceptance criteria with
// testing.AllocsPerRun so a regression fails `go test`, not just a benchmark
// eyeball.

func allocTestTuple() *Tuple {
	return &Tuple{
		Stream:     "requests",
		ID:         12345,
		SrcTask:    3,
		RootEmitNS: 1,
		Values:     []Value{int64(42), "drv-001234", 30.65, 104.06, true},
	}
}

func TestEncodeTupleZeroAlloc(t *testing.T) {
	enc := NewEncoder()
	tp := allocTestTuple()
	if _, err := enc.EncodeTuple(tp); err != nil { // warm the scratch
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := enc.EncodeTuple(tp); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("EncodeTuple steady state allocates %.1f/op, want 0", allocs)
	}
}

func TestAppendWorkerMessageZeroAlloc(t *testing.T) {
	payload, err := AppendTuple(nil, allocTestTuple())
	if err != nil {
		t.Fatal(err)
	}
	msg := &WorkerMessage{Kind: KindWorkerMessage, DstIDs: []int32{1, 2, 3, 4, 5, 6, 7, 8}, Payload: payload}
	buf := AppendWorkerMessage(nil, msg) // warm the scratch
	allocs := testing.AllocsPerRun(200, func() {
		buf = AppendWorkerMessage(buf[:0], msg)
	})
	if allocs != 0 {
		t.Fatalf("AppendWorkerMessage steady state allocates %.1f/op, want 0", allocs)
	}
}

func TestDecodeWorkerMessageIntoZeroAlloc(t *testing.T) {
	payload, err := AppendTuple(nil, allocTestTuple())
	if err != nil {
		t.Fatal(err)
	}
	raw := AppendWorkerMessage(nil, &WorkerMessage{
		Kind: KindWorkerMessage, DstIDs: []int32{1, 2, 3, 4}, Payload: payload,
	})
	var scratch WorkerMessage
	if _, err := DecodeWorkerMessageInto(&scratch, raw); err != nil { // warm DstIDs
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := DecodeWorkerMessageInto(&scratch, raw); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("DecodeWorkerMessageInto steady state allocates %.1f/op, want 0", allocs)
	}
}

func TestEncodeControlEnvelopeZeroAlloc(t *testing.T) {
	enc := NewEncoder()
	cm := &ControlMessage{Type: CtrlCredit, Node: 7, Credits: 12345}
	enc.EncodeControlEnvelope(cm) // warm both scratches
	allocs := testing.AllocsPerRun(200, func() {
		enc.EncodeControlEnvelope(cm)
	})
	if allocs != 0 {
		t.Fatalf("EncodeControlEnvelope steady state allocates %.1f/op, want 0", allocs)
	}
}

// TestDecodeWorkerMessageIntoReuse checks the scratch is fully overwritten
// between messages: relay header fields from a multicast message must not
// leak into the next (non-multicast) decode.
func TestDecodeWorkerMessageIntoReuse(t *testing.T) {
	mc := AppendWorkerMessage(nil, &WorkerMessage{
		Kind: KindMulticastMessage, DstIDs: []int32{9, 10, 11},
		Group: 5, TreeVersion: 3, SrcWorker: 2, Payload: []byte("multi"),
	})
	plain := AppendWorkerMessage(nil, &WorkerMessage{
		Kind: KindWorkerMessage, DstIDs: []int32{1}, Payload: []byte("plain"),
	})
	var m WorkerMessage
	if _, err := DecodeWorkerMessageInto(&m, mc); err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeWorkerMessageInto(&m, plain); err != nil {
		t.Fatal(err)
	}
	if m.Group != 0 || m.TreeVersion != 0 || m.SrcWorker != 0 {
		t.Fatalf("stale relay header after reuse: %+v", m)
	}
	if len(m.DstIDs) != 1 || m.DstIDs[0] != 1 || string(m.Payload) != "plain" {
		t.Fatalf("bad reused decode: %+v", m)
	}
}

// TestDecodeTupleBytesAlias pins the tagBytes copy elision: decoded []byte
// values alias the input buffer (receive-path buffers are handler-owned, so
// the alias is the point — no per-field copy).
func TestDecodeTupleBytesAlias(t *testing.T) {
	blob := []byte{0xde, 0xad, 0xbe, 0xef}
	buf, err := AppendTuple(nil, &Tuple{Stream: "s", Values: []Value{blob}})
	if err != nil {
		t.Fatal(err)
	}
	out, _, err := DecodeTuple(buf)
	if err != nil {
		t.Fatal(err)
	}
	got := out.Bytes(0)
	if !bytes.Equal(got, blob) {
		t.Fatalf("decoded %v, want %v", got, blob)
	}
	// Mutating the input must show through the decoded value — the alias
	// contract (and why receive buffers must never be recycled).
	buf[len(buf)-1] ^= 0xff
	if got[len(got)-1] == 0xef {
		t.Fatal("decoded []byte does not alias the input buffer")
	}
}

// TestPooledEncoderConcurrent hammers the encoder pool from many goroutines
// (run under -race by `make race`): concurrent acquire/encode/decode/release
// must never share live scratch.
func TestPooledEncoderConcurrent(t *testing.T) {
	const goroutines = 8
	const rounds = 500
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			tp := allocTestTuple()
			tp.ID = int64(g)
			for i := 0; i < rounds; i++ {
				enc := AcquireEncoder()
				raw, err := enc.EncodeTuple(tp)
				if err != nil {
					t.Error(err)
					ReleaseEncoder(enc)
					return
				}
				out, _, err := DecodeTuple(raw)
				if err != nil || out.ID != int64(g) {
					t.Errorf("goroutine %d round %d: decode %v id=%v", g, i, err, out)
					ReleaseEncoder(enc)
					return
				}
				cm := &ControlMessage{Type: CtrlCredit, Node: int32(g), Credits: int64(i)}
				env := enc.EncodeControlEnvelope(cm)
				m, _, err := DecodeWorkerMessage(env)
				if err != nil || m.Kind != KindControl {
					t.Errorf("goroutine %d round %d: envelope decode %v", g, i, err)
					ReleaseEncoder(enc)
					return
				}
				ReleaseEncoder(enc)
			}
		}(g)
	}
	wg.Wait()
}
