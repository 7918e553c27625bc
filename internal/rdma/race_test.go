//go:build race

package rdma

// raceEnabled marks the race detector active: its instrumentation
// allocates, so exact allocation counts are asserted only without it.
func init() { raceEnabled = true }
