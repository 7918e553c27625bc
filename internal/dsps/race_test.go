//go:build race

package dsps

// raceEnabled marks the race detector active: its instrumentation
// allocates, and sync.Pool drops items at random under it, so allocation
// counts are asserted only without it.
func init() { raceEnabled = true }
