package metrics

import "time"

// SampleEvery is the stride of the data path's sampled timing (DESIGN §12).
// A per-tuple site reads the clock for a traced tuple, and otherwise on one
// event in each block of SampleEvery of its owner's events (events 1–16,
// 17–32, ...). Histograms hold the sampled durations alone; a sum that is
// read against an exact count adds SampleEvery times each sampled duration,
// so the ratio keeps its meaning.
const SampleEvery = 16

// Sampled reports whether an owner's n-th event, counted from 1, is timed.
// Each block of SampleEvery events has exactly one timed event, so n events
// time ⌊n/SampleEvery⌋ or ⌈n/SampleEvery⌉ of them. Its position in the
// block is a hash of the block's index, so input with a period that divides
// SampleEvery is not sampled at one fixed phase. Sampled is a pure function
// of n: an owner needs only its event count, which may be an atomic.
func Sampled(n int64) bool {
	i := uint64(n - 1)
	return i%SampleEvery == mix(i/SampleEvery)%SampleEvery
}

// mix is the splitmix64 output function: consecutive block indices map to
// unrelated offsets.
func mix(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// Clock is the data path's one clock read: the current time when timed
// holds, and the zero Time otherwise. Hot-path functions read the clock
// through Clock and Since rather than package time, so every read stays
// behind a sampling decision.
func Clock(timed bool) time.Time {
	if !timed {
		return time.Time{}
	}
	return time.Now()
}

// Since returns the time elapsed since t0, or 0 without a clock read when t0
// is the zero Time (an untimed event).
func Since(t0 time.Time) time.Duration {
	if t0.IsZero() {
		return 0
	}
	return time.Since(t0)
}
