package metrics

import "time"

// SampleEvery is the stride of the data path's sampled timing (DESIGN §12).
// A per-tuple site reads the clock for a traced tuple, and otherwise only on
// its owner's first event and every SampleEvery-th one after it (events 1,
// 17, 33, ...). Histograms hold the sampled durations alone; a sum that is
// read against an exact count adds SampleEvery times each sampled duration,
// so the ratio keeps its meaning.
const SampleEvery = 16

// Sampled reports whether an owner's n-th event, counted from 1, is timed.
func Sampled(n int64) bool { return n%SampleEvery == 1 }

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
