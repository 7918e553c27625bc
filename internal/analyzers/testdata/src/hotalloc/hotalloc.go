// Package hotalloc exercises the hotalloc analyzer: no per-tuple allocation
// or timestamping inside //whale:hotpath functions.
package hotalloc

import (
	"fmt"
	"strconv"
	"time"
)

//whale:hotpath
func hot(name string, n int) string {
	m := make(map[string]int) // want `map allocation in hot path hot`
	m[name] = n
	_ = map[int]string{}             // want `map literal in hot path hot`
	_ = time.Now()                   // want `time\.Now in hot path hot`
	return fmt.Sprintf("x-%s", name) // want `fmt\.Sprintf in hot path hot`
}

//whale:hotpath
func hotCopy(src []byte) []byte {
	out := make([]byte, len(src)) // want `make\(\[\]byte, \.\.\.\) in hot path hotCopy`
	copy(out, src)
	u := make([]uint8, 0, 16) // want `make\(\[\]byte, \.\.\.\) in hot path hotCopy`
	_ = u
	ids := make([]int32, 4)  // non-byte slices are allowed (header scratch)
	arr := make([][]byte, 2) // slice-of-slices allocates headers, not payload bytes
	_, _ = ids, arr
	return out
}

// hotClosure: function literals inside a hotpath function run on the same
// path and inherit the annotation.
//
//whale:hotpath
func hotClosure() func() int64 {
	return func() int64 {
		return time.Now().UnixNano() // want `time\.Now in hot path hotClosure`
	}
}

//whale:hotpath
func hotErrPath(v int) (string, error) {
	if v < 0 {
		return "", fmt.Errorf("bad value %d", v) // error path: fmt.Errorf is exempt
	}
	return strconv.Itoa(v), nil
}

// hotSince: every direct clock read is a finding, not only time.Now.
//
//whale:hotpath
func hotSince(t0, deadline time.Time) time.Duration {
	_ = time.Until(deadline) // want `time\.Until in hot path hotSince`
	return time.Since(t0)    // want `time\.Since in hot path hotSince`
}

// hotSampled reads the clock through a helper outside the annotated
// function, behind a sampling decision: not flagged. Arithmetic on times
// already read (Sub, Add) is not a clock read either.
//
//whale:hotpath
func hotSampled(n int64) time.Duration {
	t0 := sampledClock(n%16 == 1)
	return sampledClock(!t0.IsZero()).Sub(t0)
}

func sampledClock(timed bool) time.Time {
	if !timed {
		return time.Time{}
	}
	return time.Now()
}

// cold has no annotation; nothing is flagged.
func cold(name string) string {
	_ = time.Now()
	return fmt.Sprintf("x-%s", name)
}

//whale:hotpath
func suppressedHot() int64 {
	//lint:ignore hotalloc batch-open accounting needs one timestamp
	return time.Now().UnixNano()
}
