package tuple

import "testing"

// BenchmarkControlEnvelopeEncode measures the pooled control-plane envelope
// encode used by credit grants and heartbeats (0 allocs/op;
// TestEncodeControlEnvelopeZeroAlloc pins the alloc half).
func BenchmarkControlEnvelopeEncode(b *testing.B) {
	enc := NewEncoder()
	cm := &ControlMessage{Type: CtrlCredit, Node: 7, Credits: 1 << 30}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		enc.EncodeControlEnvelope(cm)
	}
}
