package main

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"syscall"
	"testing"
	"time"
)

func TestPacerSchedule(t *testing.T) {
	start := time.Unix(1000, 0)
	p := newPacer(8000, start) // 8 per tick
	// Nothing is due before the first tick's quota has been handed out
	// and the second tick has started.
	var got int
	for {
		due, ok := p.take(start.Add(tick / 2))
		if !ok {
			if want := start.Add(tick); !due.Equal(want) {
				t.Fatalf("sleep-until = %v, want %v", due, want)
			}
			break
		}
		if !due.Equal(start) {
			t.Fatalf("tuple %d due at %v, want the tick start %v", got, due, start)
		}
		got++
	}
	if got != 8 {
		t.Fatalf("first tick handed out %d tuples, want 8", got)
	}
	// A short delay is caught up: three ticks later, three ticks' quota,
	// each due at its own tick's start.
	now := start.Add(3*tick + tick/4)
	var dues []time.Duration
	for {
		due, ok := p.take(now)
		if !ok {
			break
		}
		dues = append(dues, due.Sub(start))
	}
	if len(dues) != 24 || dues[0] != tick || dues[23] != 3*tick {
		t.Fatalf("after a 3-tick delay got %d tuples spanning %v..%v, want 24 spanning 1ms..3ms", len(dues), dues[0], dues[len(dues)-1])
	}
	if p.skipped != 0 {
		t.Fatalf("skipped %d after a short delay, want 0", p.skipped)
	}
	if p.lagMax < 2*tick {
		t.Fatalf("lagMax %v after a 3-tick delay, want at least 2ms", p.lagMax)
	}
}

func TestPacerNoBurstAfterStall(t *testing.T) {
	start := time.Unix(1000, 0)
	p := newPacer(8000, start)
	for {
		if _, ok := p.take(start); !ok {
			break
		}
	}
	// The generator is held for 50 ticks. It must not replay 50 ticks'
	// quota at once: only the current tick's is due, the rest is dropped,
	// and the stall is reported as lag.
	now := start.Add(50*tick + tick/10)
	var got int
	for {
		due, ok := p.take(now)
		if !ok {
			break
		}
		if want := start.Add(50 * tick); !due.Equal(want) {
			t.Fatalf("tuple after the stall due at %v, want the current tick %v", due.Sub(start), want.Sub(start))
		}
		got++
	}
	if got != 8 {
		t.Fatalf("%d tuples right after a 50-tick stall, want one tick's 8", got)
	}
	if want := int64(49 * 8); p.skipped != want {
		t.Fatalf("skipped %d, want %d", p.skipped, want)
	}
	if p.lagMax < 49*tick {
		t.Fatalf("lagMax %v, want the stall's 49ms or more", p.lagMax)
	}
}

func TestGeneratorPhases(t *testing.T) {
	rec := newRecorder(4096, true)
	var seqs []int64
	g := newGenerator(rec, func(seq int64) { seqs = append(seqs, seq) })
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
				g.step()
			}
		}
	}()
	g.set(phase{kind: phaseQuota, until: 100})
	for g.emitted.Load() < 100 {
		time.Sleep(100 * time.Microsecond)
	}
	g.set(phase{kind: phasePaced, rate: 20000})
	time.Sleep(50 * time.Millisecond)
	g.set(phase{kind: phaseIdle})
	n := g.emitted.Load()
	time.Sleep(5 * time.Millisecond)
	close(stop)
	<-done
	if g.emitted.Load() != n {
		t.Fatalf("generator emitted %d more tuples after it was idled", g.emitted.Load()-n)
	}
	// 50 ms at 20000/s is 1000 tuples; allow for a late wake-up and the
	// tick in progress.
	if paced := n - 100; paced < 900 || paced > 1100 {
		t.Fatalf("paced phase emitted %d tuples in 50ms at 20000/s, want about 1000", paced)
	}
	for i, seq := range seqs {
		if seq != int64(i) {
			t.Fatalf("emit %d carried seq %d", i, seq)
		}
		if i > 0 && rec.due[i] < rec.due[i-1] {
			t.Fatalf("due times go backwards at seq %d", i)
		}
		if rec.emitStart[i] < rec.due[i] || rec.emitEnd[i] < rec.emitStart[i] {
			t.Fatalf("seq %d: due %d, emit %d..%d out of order", i, rec.due[i], rec.emitStart[i], rec.emitEnd[i])
		}
	}
}

func TestPercentileAndMedian(t *testing.T) {
	if got := percentile(nil, 0.5); got != 0 {
		t.Fatalf("percentile of nothing = %d", got)
	}
	xs := []int64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100, 110}
	for _, c := range []struct {
		q    float64
		want int64
	}{{0, 10}, {0.5, 60}, {0.9, 100}, {1, 110}} {
		if got := percentile(xs, c.q); got != c.want {
			t.Errorf("percentile(%v) = %d, want %d", c.q, got, c.want)
		}
	}
	if got := median([]float64{5, 1, 9}); got != 5 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 9, 2}); got != 3 {
		t.Errorf("median even = %v", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median of nothing = %v", got)
	}
}

func TestBucketMedianRate(t *testing.T) {
	const ms = int64(time.Millisecond)
	// Ten 250 ms buckets at 100 events each, except two the "machine" stole
	// completely and one event outside the window on each side.
	var times []int64
	for b := int64(0); b < 10; b++ {
		if b == 3 || b == 4 {
			continue
		}
		for i := int64(0); i < 100; i++ {
			times = append(times, 1000*ms+b*250*ms+i*2*ms)
		}
	}
	times = append(times, 999*ms, 3500*ms, 0)
	got := bucketMedianRate(times, 1000*ms, 3500*ms, 250*ms)
	if got != 400 {
		t.Fatalf("median bucket rate = %v/s, want 400 (the stall must not move it)", got)
	}
	if got := bucketMedianRate(times, 1000*ms, 1100*ms, 250*ms); got != 0 {
		t.Fatalf("window shorter than a bucket = %v, want 0", got)
	}
}

// TestSpanIdentity checks that the clamped cuts partition due → done: the
// span means add up to the mean latency whatever the observers stamped,
// including boundaries that were never reached or stamped out of order.
func TestWindow(t *testing.T) {
	w := window{
		from: mark{completed: 100, cpu: time.Second, faults: 10, counters: map[string]float64{"x": 5}},
		to:   mark{completed: 600, cpu: 2 * time.Second, faults: 260, counters: map[string]float64{"x": 12}},
	}
	if got := w.tuples(); got != 500 {
		t.Errorf("tuples = %v, want 500", got)
	}
	if got := w.cpuPerTuple(); got != 2000 {
		t.Errorf("cpuPerTuple = %v us, want 2000", got)
	}
	if got := w.faultsPerTuple(); got != 0.5 {
		t.Errorf("faultsPerTuple = %v, want 0.5", got)
	}
	if got := w.delta("x"); got != 7 {
		t.Errorf("delta = %v, want 7", got)
	}
}

// settle lasts at least its nominal length and at most warmCapFactor times
// it (plus the tick it was sleeping through), whatever the process touches.
func TestSettleBounds(t *testing.T) {
	least := 2 * faultTick
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() { // keep touching fresh memory so the process never reads calm
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			// A fresh anonymous mapping: the heap would hand back pages
			// it has touched before.
			b, err := syscall.Mmap(-1, 0, 16<<20, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
			if err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < len(b); i += 4096 {
				b[i] = 1
			}
			syscall.Munmap(b)
			time.Sleep(faultTick / 4)
		}
	}()
	got := settle(least)
	close(stop)
	<-done
	if got < warmCapFactor*least || got > warmCapFactor*least+2*faultTick {
		t.Errorf("settle under steady first touches took %v, want the cap of %v", got, warmCapFactor*least)
	}
	// With nothing growing it ends as soon as calmTicks quiet ticks have passed.
	if got := settle(2 * faultTick); got < calmTicks*faultTick || got > (calmTicks+2)*faultTick {
		t.Errorf("settle on a quiet process took %v, want about %v", got, calmTicks*faultTick)
	}
}

func TestSpanIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, name := range workloadNames {
		rec := newRecorder(2000, true)
		var seqs []int64
		for seq := int64(0); seq < 2000; seq++ {
			rec.due[seq] = 1 + rng.Int63n(1e6)
			rec.done[seq] = rec.due[seq] + rng.Int63n(1e7)
			for _, a := range [][]int64{rec.emitStart, rec.emitEnd, rec.first, rec.lastStart, rec.lastEnd} {
				switch rng.Intn(4) {
				case 0: // never reached
				case 1: // stamped outside the tuple's lifetime
					a[seq] = rng.Int63n(2e7)
				default:
					a[seq] = rec.due[seq] + rng.Int63n(rec.done[seq]-rec.due[seq]+1)
				}
			}
			seqs = append(seqs, seq)
		}
		w, err := newWorkload(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		ch := w.chain(rec)
		means, latMean := spanMeans(ch, rec, seqs)
		var sum float64
		for _, b := range ch {
			if means[b.span] < 0 {
				t.Errorf("%s: span %s has negative mean %v", name, b.span, means[b.span])
			}
			sum += means[b.span]
		}
		if math.Abs(sum-latMean) > 0.01*latMean {
			t.Errorf("%s: span means add up to %v, mean latency is %v", name, sum, latMean)
		}
		for _, b := range ch {
			if !slices.Contains(spanNames, b.span) {
				t.Errorf("%s: span %s is not in spanNames", name, b.span)
			}
		}
	}
}

// smokePhases is a run two orders of magnitude shorter than the real one.
var smokePhases = phases{
	setupCycles: 3, setupTuples: 200,
	pacedWarm: 100 * time.Millisecond, paced: 200 * time.Millisecond,
	satWarm: 100 * time.Millisecond, sat: 500 * time.Millisecond,
}

type specMetric struct {
	Name, Unit, Better string
	Bound              float64
}

// specDoc is the driver's description of the benchmark, BENCHMARK.json one
// directory up.
type specDoc struct {
	EndToEnd  []specMetric `json:"end_to_end"`
	PerLayer  []specMetric `json:"per_layer"`
	Workloads []struct{ Name string }
}

// benchmarkJSON reads BENCHMARK.json; nil when the tests run without it.
func benchmarkJSON(t *testing.T) *specDoc {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		return nil
	}
	var doc specDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, the benchmark has %v", names, workloadNames)
	}
	return &doc
}

func checkMetrics(t *testing.T, res result, nonZero bool) {
	t.Helper()
	if !res.Correct || res.Failed != 0 {
		t.Errorf("correct=%v failed=%d of %d attempted", res.Correct, res.Failed, res.Attempted)
	}
	if res.Attempted < 1 {
		t.Errorf("attempted = %d", res.Attempted)
	}
	for name, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("%s = %v", name, m.Value)
		}
		if nonZero && m.Value <= 0 {
			t.Errorf("%s = %v, want a positive value", name, m.Value)
		}
		if m.Unit == "" {
			t.Errorf("%s has no unit", name)
		}
	}
}

// raceEnabled is set by race_test.go under -race.
var raceEnabled bool

// skipUnderRace skips the tests that run a live engine when the race
// detector is on: it reports races inside the engine (rdma.Ring's tail
// refresh against RingOccupancy, the d* controller against the
// multicast.active_dstar gauge) that are the engine's to fix, and slows the
// paced phases past their schedule. The benchmark's own concurrency — the
// generator, the pacer and the recorder — is covered by the tests that
// remain.
func skipUnderRace(t *testing.T) {
	if raceEnabled {
		t.Skip("live-engine smoke tests are skipped under -race")
	}
}

func TestSmokeEndToEnd(t *testing.T) {
	skipUnderRace(t)
	spec := benchmarkJSON(t)
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			w, err := newWorkload(name, 3)
			if err != nil {
				t.Fatal(err)
			}
			res, err := runEndToEnd(w, smokePhases)
			if err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, res, true)
			for _, d := range endToEnd {
				if m, ok := res.Metrics[d.name]; !ok || m.Unit != d.unit {
					t.Errorf("metric %s: got %+v, want unit %s", d.name, m, d.unit)
				}
			}
			if len(res.Metrics) != len(endToEnd) {
				t.Errorf("%d metrics reported, %d declared", len(res.Metrics), len(endToEnd))
			}
			if spec == nil {
				return
			}
			if len(spec.EndToEnd) != len(endToEnd) {
				t.Fatalf("BENCHMARK.json declares %d end-to-end metrics, the benchmark %d", len(spec.EndToEnd), len(endToEnd))
			}
			for i, d := range endToEnd {
				s := spec.EndToEnd[i]
				better := map[bool]string{true: "higher", false: "lower"}[d.higher]
				if s.Name != d.name || s.Unit != d.unit || s.Better != better || s.Bound != d.bound {
					t.Errorf("BENCHMARK.json end_to_end[%d] = %+v, the benchmark has %+v", i, s, d)
				}
			}
		})
	}
}

func TestSmokeTraced(t *testing.T) {
	skipUnderRace(t)
	spec := benchmarkJSON(t)
	base := phases{pacedWarm: 50 * time.Millisecond, paced: 200 * time.Millisecond}
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			w, err := newWorkload(name, 4)
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(t.TempDir(), "spans.json")
			res, err := runTraced(w, base, smokePhases, path)
			if err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, res, false)
			sum, lat := res.Metrics["workload.span_sum_us"].Value, res.Metrics["workload.latency_mean_us"].Value
			if lat <= 0 || math.Abs(sum-lat) > 0.01*lat {
				t.Errorf("span means add up to %v us, mean latency %v us", sum, lat)
			}
			wantSer := map[string]float64{"fanout_whale": 1, "fanout_storm": 14}
			if want, ok := wantSer[name]; ok {
				if got := res.Metrics["dsps.serializations_per_tuple"].Value; got != want {
					t.Errorf("dsps.serializations_per_tuple = %v, want exactly %v", got, want)
				}
			}
			var file struct {
				TraceEvents []struct {
					Name string
					Dur  float64
				}
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(data, &file); err != nil || len(file.TraceEvents) == 0 {
				t.Errorf("span file: %d events, err %v", len(file.TraceEvents), err)
			}
			if spec == nil {
				return
			}
			var declared, reported []string
			for _, s := range spec.PerLayer {
				declared = append(declared, s.Name)
				if m, ok := res.Metrics[s.Name]; ok && m.Unit != s.Unit {
					t.Errorf("%s: unit %s reported, %s declared", s.Name, m.Unit, s.Unit)
				}
			}
			for n := range res.Metrics {
				reported = append(reported, n)
			}
			sort.Strings(declared)
			sort.Strings(reported)
			if !slices.Equal(declared, reported) {
				t.Errorf("per-layer metrics reported and declared in BENCHMARK.json differ:\nreported %v\ndeclared %v", reported, declared)
			}
		})
	}
}

func TestCompare(t *testing.T) {
	mk := func(scale float64, correct bool) resultSet {
		rs := resultSet{}
		for _, wl := range workloadNames {
			r := result{Correct: correct, Attempted: 100, Metrics: map[string]metric{}}
			for _, d := range endToEnd {
				r.Metrics[d.name] = metric{Value: 10 * scale, Unit: d.unit}
			}
			rs[wl] = r
		}
		return rs
	}
	write := func(name string, rs resultSet) string {
		path := filepath.Join(t.TempDir(), name)
		data, err := json.Marshal(rs)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a := write("a.json", mk(1, true))
	var out bytes.Buffer
	if ok, err := compareFiles(&out, a, write("b.json", mk(1.02, true))); err != nil || !ok {
		t.Errorf("sets 2%% apart: agree=%v err=%v\n%s", ok, err, out.String())
	}
	if ok, err := compareFiles(&out, a, write("c.json", mk(1.5, true))); err != nil || ok {
		t.Errorf("sets 50%% apart: agree=%v err=%v", ok, err)
	}
	if ok, err := compareFiles(&out, a, write("d.json", mk(1, false))); err != nil || ok {
		t.Errorf("a set with failed checks: agree=%v err=%v", ok, err)
	}
	short := mk(1, true)
	delete(short, workloadNames[0])
	if ok, err := compareFiles(&out, a, write("e.json", short)); err != nil || ok {
		t.Errorf("a set missing a workload: agree=%v err=%v", ok, err)
	}
	if _, err := compareFiles(&out, a, filepath.Join(t.TempDir(), "absent.json")); err == nil {
		t.Error("a missing file compared without error")
	}
}

func TestUnknownWorkload(t *testing.T) {
	if _, err := newWorkload("nope", 1); err == nil {
		t.Fatal("unknown workload accepted")
	}
}
