package metrics

import (
	"testing"
	"time"
)

// TestSampledStride: every block of SampleEvery events has exactly one
// timed event, so n events time ⌊n/SampleEvery⌋ or ⌈n/SampleEvery⌉.
func TestSampledStride(t *testing.T) {
	const blocks = 64
	timed := int64(0)
	for n := int64(1); n <= blocks*SampleEvery; n++ {
		if Sampled(n) {
			timed++
		}
		if lo, hi := n/SampleEvery, (n+SampleEvery-1)/SampleEvery; timed < lo || timed > hi {
			t.Fatalf("%d of the first %d events timed, want %d to %d", timed, n, lo, hi)
		}
		if n%SampleEvery == 0 && timed != n/SampleEvery {
			t.Fatalf("%d blocks of events timed %d, want one each", n/SampleEvery, timed)
		}
	}
}

// TestSampledPositionVaries: the timed event's position in its block moves
// from block to block, so input with period SampleEvery — the same sink
// layout every 16 tuples — is sampled at every phase rather than one.
// Over 256 blocks each of the 16 phases is timed, none more than three
// times its fair share.
func TestSampledPositionVaries(t *testing.T) {
	const blocks = 256
	var phases [SampleEvery]int
	for n := int64(1); n <= blocks*SampleEvery; n++ {
		if Sampled(n) {
			phases[(n-1)%SampleEvery]++
		}
	}
	for phase, count := range phases {
		if count == 0 || count > 3*blocks/SampleEvery {
			t.Fatalf("phase %d timed in %d of %d blocks, want every phase, none over %d: %v",
				phase, count, blocks, 3*blocks/SampleEvery, phases)
		}
	}
}

// TestClockUntimed: an untimed event reads no clock and measures nothing.
func TestClockUntimed(t *testing.T) {
	if t0 := Clock(false); !t0.IsZero() || Since(t0) != 0 {
		t.Fatalf("untimed Clock = %v, Since = %v; want the zero Time and 0", t0, Since(t0))
	}
	t0 := Clock(true)
	time.Sleep(time.Millisecond)
	if t0.IsZero() || Since(t0) < time.Millisecond {
		t.Fatalf("timed Clock = %v, Since = %v; want a reading and >= 1ms", t0, Since(t0))
	}
}
