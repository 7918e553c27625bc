package queueing

import "testing"

func BenchmarkQueueingMaxOutDegree(b *testing.B) {
	for i := 0; i < b.N; i++ {
		MaxOutDegree(30000, 6e-6, 1024)
	}
}

func BenchmarkCapabilitySequence(b *testing.B) {
	for i := 0; i < b.N; i++ {
		Capability(480, 3, 481)
	}
}
