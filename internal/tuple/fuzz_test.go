package tuple

import (
	"bytes"
	"testing"
)

// Fuzz harnesses for the three wire decoders. Frames arrive from the
// network, so the decoders must never panic or over-allocate on arbitrary
// bytes; and whenever a decode succeeds, re-encoding the result must
// reproduce exactly the bytes consumed (the encodings are canonical).
// Seed corpora live in testdata/fuzz/<FuzzName>/.

func FuzzDecodeTuple(f *testing.F) {
	enc, _ := AppendTuple(nil, sampleTuple())
	f.Add(enc)
	// Checkpoint barrier frame: no fields, non-zero epoch.
	barrier, _ := AppendTuple(nil, &Tuple{Stream: "__barrier", SrcTask: 3, Epoch: 12})
	f.Add(barrier)
	ack, _ := AppendTuple(nil, headerOnlyFrame())
	f.Add(ack)
	f.Add([]byte{})
	f.Add([]byte{0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		tp, n, err := DecodeTuple(data)
		// The slab's decode shares DecodeTuple's body, and must agree with
		// it on every input: the same error, or the same tuple.
		var s Slab
		stp, sn, serr := s.Decode(data)
		if (err == nil) != (serr == nil) || (err != nil && err.Error() != serr.Error()) {
			t.Fatalf("DecodeTuple error %v, Slab.Decode error %v", err, serr)
		}
		if err != nil {
			return
		}
		if n < 0 || n > len(data) {
			t.Fatalf("consumed %d of %d bytes", n, len(data))
		}
		if sn != n {
			t.Fatalf("DecodeTuple consumed %d bytes, Slab.Decode %d", n, sn)
		}
		if got := EncodedSize(tp); got != n {
			t.Fatalf("EncodedSize %d != consumed %d", got, n)
		}
		re, err := AppendTuple(nil, tp)
		if err != nil {
			t.Fatalf("re-encode of decoded tuple failed: %v", err)
		}
		if !bytes.Equal(re, data[:n]) {
			t.Fatalf("re-encode mismatch:\n in=%x\nout=%x", data[:n], re)
		}
		sre, err := AppendTuple(nil, stp)
		if err != nil {
			t.Fatalf("re-encode of slab-decoded tuple failed: %v", err)
		}
		if !bytes.Equal(sre, re) {
			t.Fatalf("slab re-encode mismatch:\n DecodeTuple=%x\nSlab.Decode=%x", re, sre)
		}
	})
}

func FuzzDecodeWorkerMessage(f *testing.F) {
	payload, _ := AppendTuple(nil, sampleTuple())
	for _, kind := range []byte{KindWorkerMessage, KindInstanceMessage, KindMulticastMessage} {
		f.Add(AppendWorkerMessage(nil, &WorkerMessage{
			Kind: kind, DstIDs: []int32{3, 17}, Payload: payload,
			Group: 2, TreeVersion: 9, SrcWorker: 4,
		}))
	}
	f.Add([]byte{})
	f.Add([]byte{KindControl, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, n, err := DecodeWorkerMessage(data)
		if err != nil {
			return
		}
		if n < 0 || n > len(data) {
			t.Fatalf("consumed %d of %d bytes", n, len(data))
		}
		if got := EncodedWorkerMessageSize(m.Kind, len(m.DstIDs), len(m.Payload)); got != n {
			t.Fatalf("EncodedWorkerMessageSize %d != consumed %d", got, n)
		}
		re := AppendWorkerMessage(nil, m)
		if !bytes.Equal(re, data[:n]) {
			t.Fatalf("re-encode mismatch:\n in=%x\nout=%x", data[:n], re)
		}
	})
}

func FuzzDecodeControlMessage(f *testing.F) {
	for _, cm := range []*ControlMessage{
		{Type: CtrlStatus, Direction: SwitchScaleDown, Group: 1, Version: 2},
		{Type: CtrlReconnect, Group: 4, Version: 5, Node: 10, OldParent: 2, NewParent: 3},
		{Type: CtrlTree, Version: 7, Nodes: []int32{0, 1, 2}, Parents: []int32{-1, 0, 0}},
		{Type: CtrlHeartbeat, Node: 3, Version: 41},
		{Type: CtrlCredit, Node: 2, Credits: 1 << 40},
		{Type: CtrlSnapAck, Direction: SnapAckSnapshot, Node: 7, Epoch: 12},
		{Type: CtrlSnapAck, Direction: SnapAckRestore, Node: 9, Epoch: 3},
	} {
		f.Add(AppendControlMessage(nil, cm))
	}
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		c, n, err := DecodeControlMessage(data)
		if err != nil {
			return
		}
		if n < 0 || n > len(data) {
			t.Fatalf("consumed %d of %d bytes", n, len(data))
		}
		if len(c.Nodes) != len(c.Parents) {
			t.Fatalf("nodes/parents length skew: %d vs %d", len(c.Nodes), len(c.Parents))
		}
		re := AppendControlMessage(nil, c)
		if !bytes.Equal(re, data[:n]) {
			t.Fatalf("re-encode mismatch:\n in=%x\nout=%x", data[:n], re)
		}
		if c.String() == "" {
			t.Fatal("empty String()")
		}
	})
}
