// Package bench defines one reproducible experiment per table and figure
// in the paper's evaluation (§5), except Fig. 12: its wait-time limit is
// subsumed here by shipping a batch whenever the link is free, so it has
// no knob to sweep. Experiments print the same rows/series the paper
// reports: parallelism sweeps over the system variants, input-rate sweeps,
// multicast-structure comparisons, the dynamic-rate timeline,
// communication-time/traffic accounting, RDMA verbs microbenchmarks, and
// the rack-topology sweep.
//
// Experiments at paper scale (480 instances, 30 machines) run on the
// discrete-event cluster model (internal/cluster); the RDMA channel and
// verbs microbenchmarks (Figs. 11, 29-30) run live on the emulated verbs
// library (internal/rdma).
package bench

import (
	"fmt"
	"sort"
	"strings"
)

// Report is one experiment's regenerated table.
type Report struct {
	// ID is the experiment id ("fig13", "table2", ...).
	ID string
	// Title describes what the paper figure/table shows.
	Title string
	// Columns are the header cells.
	Columns []string
	// Rows are the data cells, formatted.
	Rows [][]string
	// Notes records paper-vs-measured commentary.
	Notes []string
}

// String renders the report as an aligned text table.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.ID, r.Title)
	widths := make([]int, len(r.Columns))
	for i, c := range r.Columns {
		widths[i] = len(c)
	}
	for _, row := range r.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(r.Columns)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range r.Rows {
		writeRow(row)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Experiment is a registered, runnable reproduction.
type Experiment struct {
	ID    string
	Title string
	// Run executes the experiment; quick shrinks it for smoke tests.
	Run func(quick bool) (*Report, error)
}

var registry = map[string]*Experiment{}
var order []string

func register(id, title string, run func(quick bool) (*Report, error)) {
	if _, dup := registry[id]; dup {
		panic("bench: duplicate experiment " + id)
	}
	registry[id] = &Experiment{ID: id, Title: title, Run: run}
	order = append(order, id)
}

// IDs returns all experiment ids in registration (paper) order.
func IDs() []string {
	out := append([]string(nil), order...)
	return out
}

// Get returns the experiment with the given id.
func Get(id string) (*Experiment, bool) {
	e, ok := registry[id]
	return e, ok
}

// Run executes one experiment by id.
func Run(id string, quick bool) (*Report, error) {
	e, ok := registry[id]
	if !ok {
		known := IDs()
		sort.Strings(known)
		return nil, fmt.Errorf("bench: unknown experiment %q (known: %s)", id, strings.Join(known, ", "))
	}
	rep, err := e.Run(quick)
	if rep != nil && rep.ID == "" {
		rep.ID = id
	}
	return rep, err
}

// formatting helpers ---------------------------------------------------------

func f0(v float64) string { return fmt.Sprintf("%.0f", v) }
func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }

// ms renders nanoseconds as milliseconds.
func ms(ns float64) string { return fmt.Sprintf("%.3f", ns/1e6) }

// us renders nanoseconds as microseconds.
func us(ns float64) string { return fmt.Sprintf("%.1f", ns/1e3) }

func pct(v float64) string { return fmt.Sprintf("%.1f%%", v*100) }
