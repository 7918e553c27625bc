package multicast_test

import (
	"testing"

	"whale/internal/multicast"
)

// Paper-scale (480 destinations) tree construction and dynamic switching.
// The non-blocking build is timed per run by the live benchmark's
// multicast.build_us probe.

func destIDs(n int) []multicast.NodeID {
	out := make([]multicast.NodeID, n)
	for i := range out {
		out[i] = multicast.NodeID(i + 1)
	}
	return out
}

func BenchmarkBuildBinomialTree480(b *testing.B) {
	dests := destIDs(480)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		multicast.BuildBinomial(0, dests)
	}
}

func BenchmarkDynamicScaleDown(b *testing.B) {
	base := multicast.BuildNonBlocking(0, destIDs(480), 5)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr := base.Clone()
		multicast.ScaleDown(tr, 3)
	}
}

func BenchmarkDynamicScaleUp(b *testing.B) {
	base := multicast.BuildNonBlocking(0, destIDs(480), 2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr := base.Clone()
		multicast.ScaleUp(tr, 5)
	}
}
