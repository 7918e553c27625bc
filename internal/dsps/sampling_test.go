package dsps

import (
	"testing"

	"whale/internal/metrics"
	"whale/internal/obs"
	"whale/internal/transport"
	"whale/internal/tuple"
)

// TestExecuteTimesOneInSixteen: 64 executions on one executor time four of
// them — one in each block of sixteen — into the execute-time histogram
// and ProcessingLatency, while the executed and completed counts stay
// exact.
func TestExecuteTimesOneInSixteen(t *testing.T) {
	const n = 64
	eng := runUntilDrained(t, allTopology(t, n, 1, func() Spout { return &countSpout{n: n, keys: 4} }),
		Config{Workers: 1, Network: transport.NewInprocNetwork(0)})
	st := eng.OperatorStats()["sink"]
	if st.Executed != n || st.ExecLatency.Count != 4 || st.ExecLatency.Mean <= 0 {
		t.Fatalf("sink executed %d, exec latency %+v; want %d executions, 4 timed", st.Executed, st.ExecLatency, n)
	}
	m := eng.Metrics()
	if m.TuplesCompleted.Value() != n || m.ProcessingLatency.Count() != 4 {
		t.Fatalf("completed %d, processing latency %v; want %d completions, 4 timed",
			m.TuplesCompleted.Value(), m.ProcessingLatency.Snapshot(), n)
	}
}

// TestTracedTupleAlwaysTimed: with every root traced, each execution, each
// inbox residency and each encode records its span, while the metrics still hold the same
// one-in-SampleEvery sample they hold untraced.
func TestTracedTupleAlwaysTimed(t *testing.T) {
	const n = 64
	scope := obs.NewScope(obs.Config{TraceSampleEvery: 1})
	eng := runUntilDrained(t, allTopology(t, n, 2, func() Spout { return &countSpout{n: n, keys: 4} }), Config{
		Workers: 2, Network: transport.NewInprocNetwork(0), Comm: InstanceOriented, Obs: scope,
	})
	if got := scope.Tracer.StageHist(obs.StageExecute).Count(); got != 2*n {
		t.Fatalf("execute spans = %d, want one per traced execution (%d)", got, 2*n)
	}
	// The inbox cap is far above n, so no tuple is ever owed: the
	// residency span covers every put, not only an overflow.
	if got := scope.Tracer.StageHist(obs.StallExecQueueWait).Count(); got != 2*n {
		t.Fatalf("exec_queue_wait spans = %d, want one per traced sink put (%d)", got, 2*n)
	}
	enc := eng.Metrics().Serializations.Value()
	if want := remoteSinks(eng) * n; enc != want || want == 0 {
		t.Fatalf("serializations = %d, want %d", enc, want)
	}
	if got := scope.Tracer.StageHist(obs.StageSerialize).Count(); got != enc {
		t.Fatalf("serialize spans = %d, want one per encode (%d)", got, enc)
	}
	if got := eng.OperatorStats()["sink"].ExecLatency.Count; got != 8 {
		t.Fatalf("exec latency samples = %d, want 4 of each executor's %d", got, n)
	}
}

// allTopology is one spout all-grouped to par sink instances.
func allTopology(t *testing.T, n, par int, spout func() Spout) *Topology {
	t.Helper()
	b := NewTopologyBuilder()
	b.Spout("src", spout, 1)
	b.Bolt("sink", func() Bolt { return &funcBolt{exec: func(*TaskContext, *tuple.Tuple, *Collector) {}} }, par).All("src")
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

// remoteSinks counts the sink instances placed off the spout's worker: the
// encodes per source tuple under instance-oriented communication.
func remoteSinks(eng *Engine) int64 {
	src := eng.assign.TasksOf["src"][0]
	var n int64
	for _, tid := range eng.assign.TasksOf["sink"] {
		if eng.assign.WorkerOf[tid] != eng.assign.WorkerOf[src] {
			n++
		}
	}
	return n
}

// bytesSpout emits n tuples that each carry a 16 KiB payload, so an
// encode costs microseconds rather than nanoseconds and the sampled
// estimate is compared against a sum the scheduler's noise cannot swamp.
type bytesSpout struct {
	n, i    int
	payload []byte
}

func (s *bytesSpout) Open(*TaskContext) {}
func (s *bytesSpout) Next(c *Collector) bool {
	if s.i >= s.n {
		return false
	}
	c.Emit(int64(s.i), s.payload)
	s.i++
	return true
}
func (s *bytesSpout) Close() {}

// TestSerializationNSEstimatesTheTotal: SerializationNS adds SampleEvery
// times each sampled encode, so over a run it stays within 2x of the exact
// total — here the sum of the serialize spans, with every tuple traced.
// Timing on a shared host is noisy, so the run gets three tries.
func TestSerializationNSEstimatesTheTotal(t *testing.T) {
	const n = 800
	var ratio float64
	for try := 0; try < 3; try++ {
		topo := allTopology(t, n, 4, func() Spout { return &bytesSpout{n: n, payload: make([]byte, 16<<10)} })
		scope := obs.NewScope(obs.Config{TraceSampleEvery: 1})
		eng := runUntilDrained(t, topo, Config{
			Workers: 2, Network: transport.NewInprocNetwork(0), Comm: InstanceOriented, Obs: scope,
		})
		m := eng.Metrics()
		exact := scope.Tracer.StageHist(obs.StageSerialize).Sum()
		if want := remoteSinks(eng) * n; m.Serializations.Value() != want || want == 0 || exact <= 0 {
			t.Fatalf("serializations = %d (want %d), exact total %d ns", m.Serializations.Value(), want, exact)
		}
		ratio = float64(m.SerializationNS.Value()) / float64(exact)
		if ratio >= 0.5 && ratio <= 2 {
			return
		}
	}
	t.Fatalf("SerializationNS / exact encode time = %.2f in the last of three runs, want within [0.5, 2] (stride %d)",
		ratio, metrics.SampleEvery)
}
