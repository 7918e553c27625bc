package dsps

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"whale/internal/control"
	"whale/internal/metrics"
	"whale/internal/multicast"
	"whale/internal/obs"
	"whale/internal/rdma"
	"whale/internal/transport"
	"whale/internal/tuple"
)

// countSpout emits n tuples {seq int64, key string} then stops.
type countSpout struct {
	n    int
	keys int
	i    int
}

func (s *countSpout) Open(*TaskContext) {}
func (s *countSpout) Next(c *Collector) bool {
	if s.i >= s.n {
		return false
	}
	c.Emit(int64(s.i), fmt.Sprintf("key-%d", s.i%s.keys))
	s.i++
	return true
}
func (s *countSpout) Close() {}

// eventually waits until cond holds, failing the test after ten seconds. It
// yields between checks instead of sleeping.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("%s: not within 10s", what)
		}
	}
}

// capture records every tuple each task receives.
type capture struct {
	mu     sync.Mutex
	byTask map[int32][]int64 // task -> received seqs
}

func newCapture() *capture { return &capture{byTask: map[int32][]int64{}} }

func (c *capture) record(task int32, seq int64) {
	c.mu.Lock()
	c.byTask[task] = append(c.byTask[task], seq)
	c.mu.Unlock()
}

func (c *capture) counts() map[int32]int {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := map[int32]int{}
	for k, v := range c.byTask {
		out[k] = len(v)
	}
	return out
}

func (c *capture) total() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, v := range c.byTask {
		n += len(v)
	}
	return n
}

// exactlyOnce verifies each task saw each seq 0..n-1 exactly once.
func (c *capture) exactlyOnce(t *testing.T, tasks []int32, n int) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, task := range tasks {
		got := c.byTask[task]
		if len(got) != n {
			t.Fatalf("task %d received %d of %d tuples", task, len(got), n)
		}
		seen := map[int64]bool{}
		for _, s := range got {
			if seen[s] {
				t.Fatalf("task %d received seq %d twice", task, s)
			}
			seen[s] = true
		}
	}
}

// captureBolt records (task, seq) into a shared capture.
type captureBolt struct {
	cap *capture
	ctx *TaskContext
}

func (b *captureBolt) Prepare(ctx *TaskContext) { b.ctx = ctx }
func (b *captureBolt) Execute(tp *tuple.Tuple, _ *Collector) {
	b.cap.record(b.ctx.TaskID, tp.Int(0))
}
func (b *captureBolt) Cleanup() {}

// forwardBolt re-emits everything.
type forwardBolt struct{}

func (forwardBolt) Prepare(*TaskContext) {}
func (forwardBolt) Execute(tp *tuple.Tuple, c *Collector) {
	c.Emit(tp.Fields()...)
}
func (forwardBolt) Cleanup() {}

// runUntilDrained starts the topology, waits for spout exhaustion, drains
// and stops.
func runUntilDrained(t *testing.T, topo *Topology, cfg Config) *Engine {
	t.Helper()
	eng, err := Start(topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng.WaitSpouts()
	if !eng.Drain(15 * time.Second) {
		eng.Stop()
		t.Fatal("engine did not drain")
	}
	eng.Stop()
	return eng
}

func allGroupingConfigs() map[string]Config {
	return map[string]Config{
		"instance-oriented": {Comm: InstanceOriented},
		"woc-star":          {Comm: WorkerOriented, Multicast: MulticastStar},
		"woc-binomial":      {Comm: WorkerOriented, Multicast: MulticastBinomial},
		"woc-nonblocking":   {Comm: WorkerOriented, Multicast: MulticastNonBlocking, FixedDstar: true, InitialDstar: 2},
		"woc-adaptive":      {Comm: WorkerOriented, Multicast: MulticastNonBlocking, MonitorInterval: 5 * time.Millisecond},
	}
}

func TestAllGroupingExactlyOnce(t *testing.T) {
	const n, parallelism, workers = 500, 12, 4
	for name, cfg := range allGroupingConfigs() {
		t.Run(name, func(t *testing.T) {
			cap := newCapture()
			b := NewTopologyBuilder()
			b.Spout("src", func() Spout { return &countSpout{n: n, keys: 10} }, 1)
			b.Bolt("match", func() Bolt { return &captureBolt{cap: cap} }, parallelism).All("src")
			topo, err := b.Build()
			if err != nil {
				t.Fatal(err)
			}
			cfg.Workers = workers
			cfg.Network = transport.NewInprocNetwork(0)
			eng := runUntilDrained(t, topo, cfg)
			cap.exactlyOnce(t, eng.assign.TasksOf["match"], n)
			if got := eng.Metrics().TuplesExecuted.Value(); got != int64(n*parallelism) {
				t.Fatalf("executed %d, want %d", got, n*parallelism)
			}
			if eng.Metrics().TuplesCompleted.Value() != int64(n*parallelism) {
				t.Fatal("sink completions missing")
			}
			if eng.Metrics().ProcessingLatency.Count() == 0 {
				t.Fatal("no latency samples")
			}
		})
	}
}

func TestAllGroupingOverRDMA(t *testing.T) {
	// The full Whale stack: worker-oriented + non-blocking tree over the
	// emulated RDMA transport (one-sided READ channels).
	const n, parallelism, workers = 300, 8, 4
	cap := newCapture()
	b := NewTopologyBuilder()
	b.Spout("src", func() Spout { return &countSpout{n: n, keys: 10} }, 1)
	b.Bolt("match", func() Bolt { return &captureBolt{cap: cap} }, parallelism).All("src")
	topo, _ := b.Build()
	cfg := Config{
		Workers:    workers,
		Network:    transport.NewRDMANetwork(rdmaCost(), rdmaCfg()),
		Comm:       WorkerOriented,
		Multicast:  MulticastNonBlocking,
		FixedDstar: true, InitialDstar: 2,
	}
	eng := runUntilDrained(t, topo, cfg)
	cap.exactlyOnce(t, eng.assign.TasksOf["match"], n)
	if eng.Metrics().MulticastLatency.Count() == 0 {
		t.Fatal("no multicast latency samples")
	}
}

func TestFieldsGroupingRoutesByKey(t *testing.T) {
	const n = 400
	cap := newCapture()
	keyByTask := struct {
		mu sync.Mutex
		m  map[string]int32
		ok bool
	}{m: map[string]int32{}, ok: true}
	b := NewTopologyBuilder()
	b.Spout("src", func() Spout { return &countSpout{n: n, keys: 16} }, 1)
	b.Bolt("agg", func() Bolt {
		return &funcBolt{exec: func(ctx *TaskContext, tp *tuple.Tuple, _ *Collector) {
			cap.record(ctx.TaskID, tp.Int(0))
			key := tp.StringAt(1)
			keyByTask.mu.Lock()
			if prev, seen := keyByTask.m[key]; seen && prev != ctx.TaskID {
				keyByTask.ok = false
			}
			keyByTask.m[key] = ctx.TaskID
			keyByTask.mu.Unlock()
		}}
	}, 8).Fields("src", 1)
	topo, _ := b.Build()
	runUntilDrained(t, topo, Config{Workers: 4, Network: transport.NewInprocNetwork(0), Comm: WorkerOriented})
	if cap.total() != n {
		t.Fatalf("delivered %d of %d", cap.total(), n)
	}
	if !keyByTask.ok {
		t.Fatal("a key visited two different tasks")
	}
}

// funcBolt adapts a closure to the Bolt interface.
type funcBolt struct {
	exec func(*TaskContext, *tuple.Tuple, *Collector)
	ctx  *TaskContext
}

func (b *funcBolt) Prepare(ctx *TaskContext)              { b.ctx = ctx }
func (b *funcBolt) Execute(tp *tuple.Tuple, c *Collector) { b.exec(b.ctx, tp, c) }
func (b *funcBolt) Cleanup()                              {}

// rdmaCost and rdmaCfg configure the emulated RDMA network for engine
// integration tests: fast, small batches so tests drain quickly.
func rdmaCost() rdma.CostModel { return rdma.CostModel{} }
func rdmaCfg() rdma.ChannelConfig {
	return rdma.ChannelConfig{MMS: 8 << 10}
}

func TestShuffleGroupingBalances(t *testing.T) {
	const n = 800
	cap := newCapture()
	b := NewTopologyBuilder()
	b.Spout("src", func() Spout { return &countSpout{n: n, keys: 4} }, 1)
	b.Bolt("work", func() Bolt { return &captureBolt{cap: cap} }, 8).Shuffle("src")
	topo, _ := b.Build()
	runUntilDrained(t, topo, Config{Workers: 4, Network: transport.NewInprocNetwork(0)})
	counts := cap.counts()
	if cap.total() != n {
		t.Fatalf("delivered %d of %d", cap.total(), n)
	}
	for task, c := range counts {
		if c != n/8 {
			t.Fatalf("task %d received %d; strict round-robin expects %d", task, c, n/8)
		}
	}
}

func TestGlobalGrouping(t *testing.T) {
	const n = 100
	cap := newCapture()
	b := NewTopologyBuilder()
	b.Spout("src", func() Spout { return &countSpout{n: n, keys: 4} }, 1)
	b.Bolt("g", func() Bolt { return &captureBolt{cap: cap} }, 6).Global("src")
	topo, _ := b.Build()
	eng := runUntilDrained(t, topo, Config{Workers: 3, Network: transport.NewInprocNetwork(0)})
	first := eng.assign.TasksOf["g"][0]
	if got := cap.counts(); got[first] != n || cap.total() != n {
		t.Fatalf("global counts %v", got)
	}
}

func TestPipelineLatencyPropagation(t *testing.T) {
	const n = 200
	cap := newCapture()
	b := NewTopologyBuilder()
	b.Spout("src", func() Spout { return &countSpout{n: n, keys: 4} }, 1)
	b.Bolt("mid", func() Bolt { return forwardBolt{} }, 3).Shuffle("src")
	b.Bolt("sink", func() Bolt { return &captureBolt{cap: cap} }, 2).FieldsStream("mid", "mid", 1)
	topo, _ := b.Build()
	eng := runUntilDrained(t, topo, Config{Workers: 2, Network: transport.NewInprocNetwork(0), Comm: WorkerOriented})
	if cap.total() != n {
		t.Fatalf("sink saw %d of %d", cap.total(), n)
	}
	m := eng.Metrics()
	if m.TuplesCompleted.Value() != n {
		t.Fatalf("completed %d", m.TuplesCompleted.Value())
	}
	// One sink execution in metrics.SampleEvery is timed, per executor.
	if want := sampledExecutions(eng.opShares("sink")); m.ProcessingLatency.Count() != want || m.ProcessingLatency.Mean() <= 0 {
		t.Fatalf("latency histogram %v, want %d samples", m.ProcessingLatency.Snapshot(), want)
	}
}

// sampledExecutions is how many executions an operator's executors time:
// of each executor's n, the ones metrics.Sampled picks — ⌊n/SampleEvery⌋
// or ⌈n/SampleEvery⌉, by where the last partial block's sample falls.
func sampledExecutions(shares []*opMetrics) int64 {
	var want int64
	for _, s := range shares {
		for n := int64(1); n <= s.executed.Value(); n++ {
			if metrics.Sampled(n) {
				want++
			}
		}
	}
	return want
}

// namedStreamSpout splits output across two named streams.
type namedStreamSpout struct{ i int }

func (s *namedStreamSpout) Open(*TaskContext) {}
func (s *namedStreamSpout) Next(c *Collector) bool {
	if s.i >= 100 {
		return false
	}
	if s.i%2 == 0 {
		c.EmitTo("even", int64(s.i), "k")
	} else {
		c.EmitTo("odd", int64(s.i), "k")
	}
	s.i++
	return true
}
func (s *namedStreamSpout) Close() {}

func TestNamedStreams(t *testing.T) {
	evens, odds := newCapture(), newCapture()
	b := NewTopologyBuilder()
	b.Spout("src", func() Spout { return &namedStreamSpout{} }, 1)
	b.Bolt("e", func() Bolt { return &captureBolt{cap: evens} }, 2).AllStream("src", "even")
	b.Bolt("o", func() Bolt { return &captureBolt{cap: odds} }, 2).ShuffleStream("src", "odd")
	topo, _ := b.Build()
	runUntilDrained(t, topo, Config{Workers: 2, Network: transport.NewInprocNetwork(0), Comm: WorkerOriented})
	if evens.total() != 100 { // 50 evens × 2 tasks (all grouping)
		t.Fatalf("evens %d", evens.total())
	}
	if odds.total() != 50 {
		t.Fatalf("odds %d", odds.total())
	}
}

func TestStartValidation(t *testing.T) {
	b := NewTopologyBuilder()
	b.Spout("s", mkSpout, 1)
	topo, _ := b.Build()
	if _, err := Start(topo, Config{}); err == nil {
		t.Fatal("nil network accepted")
	}
	if _, err := Start(topo, Config{Network: transport.NewInprocNetwork(0), Comm: InstanceOriented, Multicast: MulticastBinomial}); err == nil {
		t.Fatal("instance-oriented tree multicast accepted")
	}
}

func TestStopIsIdempotent(t *testing.T) {
	b := NewTopologyBuilder()
	b.Spout("s", func() Spout { return &countSpout{n: 10, keys: 2} }, 1)
	b.Bolt("x", func() Bolt { return &captureBolt{cap: newCapture()} }, 2).All("s")
	topo, _ := b.Build()
	eng, err := Start(topo, Config{Workers: 2, Network: transport.NewInprocNetwork(0), Comm: WorkerOriented})
	if err != nil {
		t.Fatal(err)
	}
	// Two Stops racing must both return and tear down exactly once (a second
	// teardown would close closed channels); so must a Stop after them.
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			eng.Stop()
		}()
	}
	wg.Wait()
	eng.Stop()
}

// TestGroupTreesConcurrentInstall: with two writers installing interleaved
// versions (the dispatch path and the monitor loop), a reader never sees an
// active version whose tree is missing, and retention is unchanged: the
// newest version and the two behind it.
func TestGroupTreesConcurrentInstall(t *testing.T) {
	const last = 2000
	tr := multicast.BuildNonBlocking(0, []int32{1, 2, 3}, 2)
	g := newGroupTrees(1, tr)
	stop := make(chan struct{})
	var readers, writers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			var prev int32
			for {
				select {
				case <-stop:
					return
				default:
				}
				got, v, ok := g.Load().activeTree()
				if !ok || got == nil {
					t.Errorf("active version %d has no tree", v)
					return
				}
				if v < prev {
					t.Errorf("active version went back from %d to %d", prev, v)
					return
				}
				prev = v
			}
		}()
	}
	for w := int32(0); w < 2; w++ {
		writers.Add(1)
		go func(w int32) {
			defer writers.Done()
			for v := 2 + w; v <= last; v += 2 {
				g.install(v, tr)
			}
		}(w)
	}
	writers.Wait()
	close(stop)
	readers.Wait()
	s := g.Load()
	if s.active != last || len(s.versions) != 3 {
		t.Fatalf("active %d with %d versions retained, want %d with 3", s.active, len(s.versions), last)
	}
	for v := int32(last - 2); v <= last; v++ {
		if s.versions[v] == nil {
			t.Fatalf("version %d not retained", v)
		}
	}
	g.install(last-5, tr) // a stale CtrlTree arriving late is dropped, not activated
	if s := g.Load(); s.active != last || s.versions[last-5] != nil {
		t.Fatalf("stale install: active %d, retained %v", s.active, s.versions[last-5] != nil)
	}
}

// rateSpout emits continuously until stopped, at full speed.
type rateSpout struct{ i int }

func (s *rateSpout) Open(*TaskContext) {}
func (s *rateSpout) Next(c *Collector) bool {
	c.Emit(int64(s.i), "k")
	s.i++
	time.Sleep(50 * time.Microsecond)
	return true
}
func (s *rateSpout) Close() {}

func TestAdaptiveScaleUpSwitch(t *testing.T) {
	// Start with d*=1 (a chain). With a live stream, microsecond te and an
	// empty queue, the controller must scale up toward the binomial bound,
	// exercising the full CtrlTree/ACK protocol, with zero tuple loss
	// across the switch.
	cap := newCapture()
	b := NewTopologyBuilder()
	b.Spout("src", func() Spout { return &rateSpout{} }, 1)
	b.Bolt("match", func() Bolt { return &captureBolt{cap: cap} }, 14).All("src")
	topo, _ := b.Build()
	cfg := Config{
		Workers:         7,
		Network:         transport.NewInprocNetwork(0),
		Comm:            WorkerOriented,
		Multicast:       MulticastNonBlocking,
		InitialDstar:    1,
		MonitorInterval: 3 * time.Millisecond,
		Control:         control.Config{QueueCapacity: 1024, Alpha: 0.3},
	}
	eng, err := Start(topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) && eng.Metrics().Switches.Value() == 0 {
		time.Sleep(5 * time.Millisecond)
	}
	if eng.Metrics().Switches.Value() == 0 {
		eng.Stop()
		t.Fatal("controller never switched")
	}
	// Let traffic flow across the new structure, then stop and verify.
	time.Sleep(50 * time.Millisecond)
	eng.StopSpouts()
	if !eng.Drain(15 * time.Second) {
		eng.Stop()
		t.Fatal("drain failed")
	}
	eng.Stop()
	if d := eng.ActiveDstar(); d <= 1 {
		t.Fatalf("d* = %d after scale-up", d)
	}
	if eng.Metrics().SwitchLatency.Count() == 0 {
		t.Fatal("switch latency not recorded")
	}
	// Exactly-once across the structure change.
	n := 0
	for _, c := range cap.counts() {
		if n == 0 {
			n = c
		}
	}
	cap.exactlyOnce(t, eng.assign.TasksOf["match"], n)
}

func TestOperatorStats(t *testing.T) {
	const n = 100
	cap := newCapture()
	b := NewTopologyBuilder()
	b.Spout("src", func() Spout { return &countSpout{n: n, keys: 4} }, 1)
	b.Bolt("mid", func() Bolt { return forwardBolt{} }, 2).Shuffle("src")
	b.Bolt("sink", func() Bolt { return &captureBolt{cap: cap} }, 2).FieldsStream("mid", "mid", 1)
	topo, _ := b.Build()
	eng := runUntilDrained(t, topo, Config{Workers: 2, Network: transport.NewInprocNetwork(0)})
	stats := eng.OperatorStats()
	if len(stats) != 3 {
		t.Fatalf("stats for %d operators", len(stats))
	}
	if stats["src"].Emitted != n || stats["src"].Executed != 0 {
		t.Fatalf("src stats %+v", stats["src"])
	}
	if stats["mid"].Executed != n || stats["mid"].Emitted != n {
		t.Fatalf("mid stats %+v", stats["mid"])
	}
	if stats["sink"].Executed != n || stats["sink"].Emitted != 0 {
		t.Fatalf("sink stats %+v", stats["sink"])
	}
	if want := sampledExecutions(eng.opShares("sink")); stats["sink"].ExecLatency.Count != want || stats["sink"].ExecLatency.Mean <= 0 {
		t.Fatalf("sink exec latency %+v, want %d samples", stats["sink"].ExecLatency, want)
	}
}

func TestMultiSourceMulticastGroups(t *testing.T) {
	// Two spout tasks on different workers: each gets its own multicast
	// group and tree rooted at its worker; every destination instance must
	// still see every tuple from BOTH sources exactly once.
	const nPerSpout, parallelism, workers = 150, 9, 3
	cap := newCapture()
	b := NewTopologyBuilder()
	b.Spout("src", func() Spout { return &countSpout{n: nPerSpout, keys: 5} }, 2)
	b.Bolt("sink", func() Bolt { return &captureBolt{cap: cap} }, parallelism).All("src")
	topo, _ := b.Build()
	eng := runUntilDrained(t, topo, Config{
		Workers: workers, Network: transport.NewInprocNetwork(0),
		Comm: WorkerOriented, Multicast: MulticastNonBlocking,
		FixedDstar: true, InitialDstar: 2,
	})
	// One group per source worker hosting a spout task.
	srcWorkers := map[int32]bool{}
	for _, tid := range eng.assign.TasksOf["src"] {
		srcWorkers[eng.assign.WorkerOf[tid]] = true
	}
	if len(eng.groupDescs) != len(srcWorkers) {
		t.Fatalf("%d groups for %d source workers", len(eng.groupDescs), len(srcWorkers))
	}
	// Each sink task saw 2*nPerSpout tuples: nPerSpout seqs, each twice
	// (once per spout task).
	for _, task := range eng.assign.TasksOf["sink"] {
		got := cap.counts()[task]
		if got != 2*nPerSpout {
			t.Fatalf("task %d received %d, want %d", task, got, 2*nPerSpout)
		}
	}
}

// tickCountBolt counts tick and data tuples separately.
type tickCountBolt struct {
	ticks, data *metrics.Counter
}

func (b *tickCountBolt) Prepare(*TaskContext) {}
func (b *tickCountBolt) Execute(tp *tuple.Tuple, _ *Collector) {
	if tp.Stream == StreamTick {
		b.ticks.Inc()
	} else {
		b.data.Inc()
	}
}
func (b *tickCountBolt) Cleanup() {}

func TestTickTuples(t *testing.T) {
	var ticks, data metrics.Counter
	b := NewTopologyBuilder()
	b.Spout("src", func() Spout { return &countSpout{n: 10, keys: 2} }, 1)
	b.Bolt("win", func() Bolt { return &tickCountBolt{ticks: &ticks, data: &data} }, 2).
		Shuffle("src").TickEvery(20 * time.Millisecond)
	topo, _ := b.Build()
	eng, err := Start(topo, Config{Workers: 2, Network: transport.NewInprocNetwork(0)})
	if err != nil {
		t.Fatal(err)
	}
	eng.WaitSpouts()
	if !eng.Drain(10 * time.Second) {
		eng.Stop()
		t.Fatal("drain failed")
	}
	completedBefore := eng.Metrics().TuplesCompleted.Value()
	// Several tick periods with no data: 3 periods x 2 instances.
	eventually(t, "6 ticks", func() bool { return ticks.Value() >= 6 })
	eng.Stop()
	if data.Value() != 10 {
		t.Fatalf("data tuples %d", data.Value())
	}
	if ticks.Value() < 6 {
		t.Fatalf("only %d ticks delivered", ticks.Value())
	}
	// Ticks never count as completed data tuples.
	if got := eng.Metrics().TuplesCompleted.Value(); got != completedBefore {
		t.Fatalf("ticks polluted completions: %d -> %d", completedBefore, got)
	}
}

// TestStalledTaskKeepsSiblingTicks: ticks go to an operator's tasks one
// after another, and a task stalled in Execute with a full inbox must not
// hold back its sibling's ticks.
func TestStalledTaskKeepsSiblingTicks(t *testing.T) {
	gate := make(chan struct{})
	var siblingTicks metrics.Counter
	b := NewTopologyBuilder()
	b.Spout("src", func() Spout { return &countSpout{n: 0, keys: 1} }, 1)
	b.Bolt("win", func() Bolt {
		return &funcBolt{exec: func(ctx *TaskContext, tp *tuple.Tuple, _ *Collector) {
			if tp.Stream != StreamTick {
				return
			}
			if ctx.TaskIndex == 0 {
				<-gate
			} else {
				siblingTicks.Inc()
			}
		}}
	}, 2).Shuffle("src").TickEvery(10 * time.Millisecond)
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	eng, err := Start(topo, Config{Workers: 1, Network: transport.NewInprocNetwork(0), ExecutorQueueCap: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Stop()
	defer close(gate) // before Stop: task 0 blocks on it
	const want = 20   // the stalled task's inbox filled after its first two
	for deadline := time.Now().Add(10 * time.Second); siblingTicks.Value() < want; {
		if time.Now().After(deadline) {
			t.Fatalf("task 1 got %d ticks while task 0 stalled, want %d", siblingTicks.Value(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestReconfigurationEventOrdering(t *testing.T) {
	// Drive the multicast manager's switch logic on the monitor loop, one
	// decision per turn (the hour-long monitor interval keeps the controller
	// round out of the way): a scale-down followed by a scale-up must land
	// in the event log in order, with the d* transitions and tree versions
	// the controller decided on.
	scope := obs.NewScope(obs.Config{})
	cap := newCapture()
	b := NewTopologyBuilder()
	b.Spout("src", func() Spout { return &countSpout{n: 0, keys: 1} }, 1)
	b.Bolt("dst", func() Bolt { return &captureBolt{cap: cap} }, 6).All("src")
	topo, _ := b.Build()
	eng, err := Start(topo, Config{
		Workers:         7,
		Network:         transport.NewInprocNetwork(0),
		Comm:            WorkerOriented,
		Multicast:       MulticastNonBlocking,
		InitialDstar:    3,
		MonitorInterval: time.Hour,
		Obs:             scope,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Stop()
	if len(eng.managers) != 1 {
		t.Fatalf("managers: %d", len(eng.managers))
	}
	var mgr *mcManager
	for _, m := range eng.managers {
		mgr = m
	}

	waitComplete := func(version int32) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for time.Now().Before(deadline) {
			for _, ev := range scope.Events.Recent(0) {
				if ev.Kind == obs.EventSwitchComplete && ev.Version == version {
					return
				}
			}
			time.Sleep(2 * time.Millisecond)
		}
		t.Fatalf("switch to version %d never completed", version)
	}

	decide := func(dec control.Decision, queueLen int) {
		t.Helper()
		if !eng.mon.ask(func() { mgr.maybeSwitch(dec, queueLen) }) {
			t.Fatal("monitor loop exited")
		}
	}
	decide(control.Decision{Action: control.ScaleDown, NewDstar: 1,
		Lambda: 1e5, Te: 1e-6}, 900)
	waitComplete(2)
	decide(control.Decision{Action: control.ScaleUp, NewDstar: 2,
		Lambda: 1e6, Te: 1e-6}, 0)
	waitComplete(3)

	var got []obs.Event
	for _, ev := range scope.Events.Recent(0) {
		switch ev.Kind {
		case obs.EventScaleDown, obs.EventScaleUp, obs.EventSwitchComplete:
			got = append(got, ev)
		}
	}
	want := []struct {
		kind     string
		version  int32
		oldDstar int
		newDstar int
	}{
		{obs.EventScaleDown, 2, 3, 1},
		{obs.EventSwitchComplete, 2, 0, 1},
		{obs.EventScaleUp, 3, 1, 2},
		{obs.EventSwitchComplete, 3, 0, 2},
	}
	if len(got) != len(want) {
		t.Fatalf("got %d reconfiguration events: %+v", len(got), got)
	}
	for i, w := range want {
		ev := got[i]
		if ev.Kind != w.kind || ev.Version != w.version || ev.NewDstar != w.newDstar {
			t.Fatalf("event %d = %+v, want %+v", i, ev, w)
		}
		if w.oldDstar != 0 && ev.OldDstar != w.oldDstar {
			t.Fatalf("event %d OldDstar = %d, want %d", i, ev.OldDstar, w.oldDstar)
		}
		if i > 0 && ev.Seq <= got[i-1].Seq {
			t.Fatalf("events out of order: %+v", got)
		}
	}
	// Scale-ups and scale-downs each carry their M/D/1 inputs.
	if got[0].Lambda != 1e5 || got[0].Te != 1e-6 || got[0].QueueLen != 900 {
		t.Fatalf("scale-down M/D/1 inputs missing: %+v", got[0])
	}
	// The initial deployment logged a tree rebuild, and each switch another.
	rebuilds := 0
	for _, ev := range scope.Events.Recent(0) {
		if ev.Kind == obs.EventTreeRebuild {
			rebuilds++
		}
	}
	if rebuilds != 3 {
		t.Fatalf("tree rebuild events = %d, want 3", rebuilds)
	}
}

// TestActiveDstarConcurrentWithControlLoop reads the engine's d* gauge while
// controller rounds run on the monitor loop (under -race: the gauge must not
// reach into the manager, which belongs to that loop). The test feeds the
// rounds itself so that every round writes the controller: a scale-up the
// Theorem 5 guard rejects forces d* back.
func TestActiveDstarConcurrentWithControlLoop(t *testing.T) {
	b := NewTopologyBuilder()
	b.Spout("src", func() Spout { return &countSpout{n: 0, keys: 1} }, 1)
	b.Bolt("dst", func() Bolt { return &captureBolt{cap: newCapture()} }, 6).All("src")
	topo, _ := b.Build()
	eng, err := Start(topo, Config{
		Workers: 7, Network: transport.NewInprocNetwork(0),
		Comm: WorkerOriented, Multicast: MulticastNonBlocking,
		InitialDstar: 3, MonitorInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Stop()
	mgr := eng.managers[0]

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				if d := eng.ActiveDstar(); d != 3 {
					t.Errorf("ActiveDstar = %d while every switch was rejected, want 3", d)
					return
				}
			}
		}
	}()
	for i := 0; i < 200; i++ {
		eng.mon.ask(func() {
			eng.mon.handle(ctrlTick(time.Now()))
			mgr.maybeSwitch(control.Decision{Action: control.ScaleUp, NewDstar: 4, Lambda: 1, Te: 1e-6}, 0)
		})
	}
	close(stop)
	wg.Wait()
	if n := eng.Metrics().SkippedSwitches.Value(); n != 200 {
		t.Fatalf("skipped switches = %d, want 200 (the guard must reject every round)", n)
	}
}
