package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// resultSet is what run.sh writes: one result per workload.
type resultSet map[string]result

func readResultSet(path string) (resultSet, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rs resultSet
	if err := json.Unmarshal(data, &rs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rs, nil
}

// compareFiles prints, for every workload and end-to-end metric of the two
// result sets, the difference of b relative to a beside the metric's
// bound, and reports whether every difference is within its bound in
// either direction and every run was correct. Two sets of runs of the same
// code must agree; a set that does not is too noisy to gate on.
func compareFiles(out io.Writer, pathA, pathB string) (bool, error) {
	a, err := readResultSet(pathA)
	if err != nil {
		return false, err
	}
	b, err := readResultSet(pathB)
	if err != nil {
		return false, err
	}
	agree := true
	fmt.Fprintf(out, "%-16s %-18s %14s %14s %8s %7s\n", "workload", "metric", "a", "b", "diff", "bound")
	for _, wl := range workloadNames {
		ra, okA := a[wl]
		rb, okB := b[wl]
		if !okA || !okB {
			fmt.Fprintf(out, "%-16s missing from %s\n", wl, map[bool]string{true: pathB, false: pathA}[okA])
			agree = false
			continue
		}
		if !ra.Correct || !rb.Correct {
			fmt.Fprintf(out, "%-16s failed its output check (a: %d failed, b: %d failed)\n", wl, ra.Failed, rb.Failed)
			agree = false
		}
		for _, d := range endToEnd {
			va, vb := ra.Metrics[d.name].Value, rb.Metrics[d.name].Value
			diff := math.Inf(1)
			if va != 0 {
				diff = (vb - va) / va
			}
			verdict := ""
			if math.Abs(diff) > d.bound {
				verdict = "  DISAGREE"
				agree = false
			}
			fmt.Fprintf(out, "%-16s %-18s %14.4f %14.4f %+7.1f%% %6.0f%%%s\n", wl, d.name, va, vb, 100*diff, 100*d.bound, verdict)
		}
	}
	return agree, nil
}
