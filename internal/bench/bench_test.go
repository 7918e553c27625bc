package bench

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// raceEnabled is set by race_test.go under -race.
var raceEnabled bool

func TestRegistryComplete(t *testing.T) {
	// Every table and figure of the evaluation must be registered.
	want := []string{
		"table2", "fig2", "fig3", "fig11",
		"fig13", "fig14", "fig15", "fig16", "fig17", "fig18", "fig19", "fig20",
		"fig21", "fig22", "fig23", "fig24", "fig25", "fig26", "fig27", "fig28",
		"fig29", "fig30", "fig31", "fig32", "fig33", "fig34",
		"ablation-waterline", "ablation-smoothing", "ablation-dstar", "ext-scale",
		"bottleneck",
	}
	ids := IDs()
	have := map[string]bool{}
	for _, id := range ids {
		have[id] = true
	}
	for _, id := range want {
		if !have[id] {
			t.Fatalf("experiment %q not registered", id)
		}
	}
	if len(ids) != len(want) {
		t.Fatalf("registry has %d experiments, manifest %d", len(ids), len(want))
	}
}

func TestUnknownExperiment(t *testing.T) {
	if _, err := Run("fig99", true); err == nil {
		t.Fatal("unknown id accepted")
	}
	if _, ok := Get("fig13"); !ok {
		t.Fatal("Get failed for known id")
	}
}

// liveExperiments run on the emulated verbs library in real time, so their
// numbers move from run to run. Every other experiment runs on the
// discrete-event simulator and is deterministic.
var liveExperiments = map[string]bool{"fig11": true, "fig29": true, "fig30": true}

// TestAllExperimentsQuick runs every experiment in quick mode and checks
// the report structure. A simulated experiment's report must also equal its
// golden, testdata/quick/<id>.txt, byte for byte. The golden is the output
// of the command that regenerates it after an intended change:
//
//	go run ./cmd/whalebench -quick <id> > internal/bench/testdata/quick/<id>.txt
func TestAllExperimentsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("quick experiment sweep skipped in -short")
	}
	goldens, err := filepath.Glob(filepath.Join("testdata", "quick", "*.txt"))
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range goldens {
		id := strings.TrimSuffix(filepath.Base(g), ".txt")
		if _, ok := Get(id); !ok || liveExperiments[id] {
			t.Errorf("golden %s names no registered simulated experiment", g)
		}
	}
	for _, id := range IDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			rep, err := Run(id, true)
			if err != nil {
				t.Fatal(err)
			}
			if rep.ID != id {
				t.Fatalf("report id %q", rep.ID)
			}
			if len(rep.Columns) < 2 || len(rep.Rows) == 0 {
				t.Fatalf("degenerate report: %+v", rep)
			}
			for _, row := range rep.Rows {
				if len(row) != len(rep.Columns) {
					t.Fatalf("row width %d vs %d columns", len(row), len(rep.Columns))
				}
			}
			if !strings.Contains(rep.String(), id) {
				t.Fatal("String() missing id")
			}
			if liveExperiments[id] {
				return
			}
			path := filepath.Join("testdata", "quick", id+".txt")
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%s: no golden (%v); regenerate it with go run ./cmd/whalebench -quick %s", id, err, id)
			}
			// whalebench prints a blank line after each report.
			if got := rep.String() + "\n"; got != string(want) {
				n, g, w := firstDiff(got, string(want))
				t.Fatalf("%s differs from %s at line %d:\n got: %q\nwant: %q", id, path, n, g, w)
			}
		})
	}
}

// firstDiff returns the 1-based number of the first line at which got and
// want differ, and that line of each.
func firstDiff(got, want string) (int, string, string) {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	line := func(ls []string, i int) string {
		if i < len(ls) {
			return ls[i]
		}
		return "<end of report>"
	}
	for i := 0; i < len(g) || i < len(w); i++ {
		if line(g, i) != line(w, i) {
			return i + 1, line(g, i), line(w, i)
		}
	}
	return 0, "", ""
}

// cell parses a numeric report cell (strips x / % / unit suffixes).
func cell(t *testing.T, s string) float64 {
	t.Helper()
	s = strings.TrimSuffix(strings.TrimSuffix(s, "x"), "%")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("cell %q: %v", s, err)
	}
	return v
}

// TestFig13ReportShape verifies the regenerated table's headline shape:
// at 480, columns are ordered Storm < RDMA-Storm < WOC < WOC-RDMA <= Whale.
func TestFig13ReportShape(t *testing.T) {
	if testing.Short() {
		t.Skip("-short")
	}
	rep, err := Run("fig13", true)
	if err != nil {
		t.Fatal(err)
	}
	last := rep.Rows[len(rep.Rows)-1]
	if last[0] != "480" {
		t.Fatalf("last row parallelism %s", last[0])
	}
	vals := make([]float64, 0, 5)
	for _, c := range last[1:] {
		vals = append(vals, cell(t, c))
	}
	for i := 0; i+2 < len(vals); i++ {
		if !(vals[i] < vals[i+1]) {
			t.Fatalf("ordering broken in row %v", last)
		}
	}
	if vals[4] < vals[3]*0.95 {
		t.Fatalf("Whale below WOC-RDMA: %v", last)
	}
}

// TestFig11MMSShape: a saturated sender closes its batches on MMS — work
// requests fall as MMS grows — while on a paced stream batches leave as soon
// as the link is free, so latency no longer climbs with MMS (it used to
// rise two hundredfold from 512 B to 1 MB, waiting for the buffer to fill).
func TestFig11MMSShape(t *testing.T) {
	if testing.Short() {
		t.Skip("-short")
	}
	if raceEnabled {
		t.Skip("timing-sensitive microbenchmark; race detector slowdown distorts pacing")
	}
	rep, err := Run("fig11", true)
	if err != nil {
		t.Fatal(err)
	}
	firstWR := cell(t, rep.Rows[0][4])
	lastWR := cell(t, rep.Rows[len(rep.Rows)-1][4])
	if !(lastWR < firstWR) {
		t.Fatalf("work requests did not fall with MMS: %v -> %v", firstWR, lastWR)
	}
	// 750 messages at 20k/s take 37 ms: a batch waiting to fill 1 MB would
	// put the mean latency near 20 ms.
	firstLat := cell(t, rep.Rows[0][2])
	lastLat := cell(t, rep.Rows[len(rep.Rows)-1][2])
	if lastLat > 20*firstLat && lastLat > 5000 {
		t.Fatalf("paced latency follows MMS again: %v µs at %s -> %v µs at %s",
			firstLat, rep.Rows[0][0], lastLat, rep.Rows[len(rep.Rows)-1][0])
	}
}

// TestFig29VerbsOrdering: one-sided READ sustains at least two-sided's
// throughput (the paper's headline ordering).
func TestFig29VerbsOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("-short")
	}
	if raceEnabled {
		t.Skip("timing-sensitive microbenchmark; race detector slowdown distorts pacing")
	}
	rep, err := Run("fig29", true)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]float64{}
	for _, row := range rep.Rows {
		byName[row[0]] = cell(t, row[1])
	}
	// The paper's headline: the READ-based ring data path wins.
	read := byName["one-sided READ"]
	if read <= byName["two-sided SEND/RECV"] || read <= byName["one-sided WRITE"] {
		t.Fatalf("READ (%f) not the best: %v", read, byName)
	}
}
