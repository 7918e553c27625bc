package main

import "time"

const (
	// tick is the open-loop schedule's grain: every tuple of a tick is due
	// at the tick's start.
	tick = time.Millisecond
	// maxCatchUpTicks bounds how much missed schedule the generator makes
	// up after it was held back. Short delays (scheduler jitter, a brief
	// backpressure wait inside Emit) are caught up, so the offered rate
	// stays the nominal one; a longer stall drops the missed ticks' quota
	// instead of replaying it as one burst several times the paced rate,
	// which would measure the burst and not the rate. The stall still shows:
	// it is folded into lagMax.
	maxCatchUpTicks = 10
)

// pacer hands out the due times of a fixed-rate open-loop schedule:
// perTick tuples are due at the start of every tick. It never spins and
// never sleeps itself; the caller sleeps until the time take returns.
type pacer struct {
	start   time.Time
	perTick int64
	n       int64 // schedule position: tuples handed out plus quota skipped
	skipped int64 // quota dropped after stalls longer than maxCatchUpTicks
	lagMax  time.Duration
}

// newPacer starts a schedule of rate tuples per second at start. The rate
// is rounded down to a whole number of tuples per tick (at least one).
func newPacer(rate int, start time.Time) *pacer {
	per := int64(rate) * int64(tick) / int64(time.Second)
	if per < 1 {
		per = 1
	}
	return &pacer{start: start, perTick: per}
}

// take returns the due time of the next tuple and true when that time is
// at or before now; otherwise it returns the time to sleep until and false.
func (p *pacer) take(now time.Time) (time.Time, bool) {
	dueTick := p.n / p.perTick
	nowTick := int64(now.Sub(p.start) / tick)
	if dueTick > nowTick {
		return p.start.Add(time.Duration(dueTick) * tick), false
	}
	due := p.start.Add(time.Duration(dueTick) * tick)
	if lag := now.Sub(due); lag > p.lagMax {
		p.lagMax = lag
	}
	if nowTick-dueTick > maxCatchUpTicks {
		p.skipped += nowTick*p.perTick - p.n
		p.n = nowTick * p.perTick
		due = p.start.Add(time.Duration(nowTick) * tick)
	}
	p.n++
	return due, true
}
