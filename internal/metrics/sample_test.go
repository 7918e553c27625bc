package metrics

import (
	"slices"
	"testing"
	"time"
)

// TestSampledStride: an owner's first event and every SampleEvery-th after
// it are timed, so n events time ⌈n/SampleEvery⌉.
func TestSampledStride(t *testing.T) {
	var timed []int64
	for n := int64(1); n <= 64; n++ {
		if Sampled(n) {
			timed = append(timed, n)
		}
	}
	if want := []int64{1, 17, 33, 49}; !slices.Equal(timed, want) {
		t.Fatalf("timed events %v, want %v", timed, want)
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
