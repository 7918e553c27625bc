package main

import (
	"sort"
	"syscall"
	"time"
)

// percentile returns the q-quantile (0 <= q <= 1) of xs by nearest rank.
// xs must be sorted ascending; an empty slice reads 0.
func percentile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	return sorted[i]
}

// median returns the median of xs (mean of the middle pair for even
// lengths) without modifying xs; an empty slice reads 0.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// bucketRates cuts [from, to) into whole buckets of the given width, counts
// the event times falling in each, and returns every bucket's rate in events
// per second, in time order. Times and bounds are nanoseconds on one clock; a
// window shorter than one bucket has no buckets.
func bucketRates(times []int64, from, to, width int64) []float64 {
	n := (to - from) / width
	if n <= 0 {
		return nil
	}
	rates := make([]float64, n)
	for _, t := range times {
		if t < from {
			continue
		}
		if b := (t - from) / width; b < n {
			rates[b] += 1e9 / float64(width)
		}
	}
	return rates
}

// bucketMedianRate is the median of bucketRates. A stolen-CPU stall empties
// one or two buckets and leaves the median where it was, which a
// whole-phase mean would not. A window shorter than one bucket reads 0.
func bucketMedianRate(times []int64, from, to, width int64) float64 {
	return median(bucketRates(times, from, to, width))
}

// cpuTime reads the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0 // RUSAGE_SELF cannot fail on Linux; a zero delta shows up as a failed metric check
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// minorFaults reads how many pages the process has touched for the first
// time so far (page faults served without I/O).
func minorFaults() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Minflt
}

// peakRSSMB reads the process's high-water resident set in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
