// Package microbench holds the curated core-primitive benchmark bodies
// shared by the repo-root `go test -bench` suite and the cmd/whaleperf
// regression gate, so the gate measures exactly the code the benchmarks do.
// Each case is a plain func(*testing.B), runnable through testing.Benchmark
// from a non-test binary.
package microbench

import (
	"testing"
	"time"

	"whale/internal/multicast"
	"whale/internal/obs"
	"whale/internal/tuple"
)

// Case is one gated microbenchmark.
type Case struct {
	// Name is the stable id used in BENCH_*.json ("micro/<name>").
	Name string
	// PerOpTuples is how many tuples one b.N iteration moves (0 when the
	// case is not tuple-oriented); whaleperf derives tuples/sec from it.
	PerOpTuples int
	Bench       func(b *testing.B)
}

// Cases returns the gated set, in reporting order.
func Cases() []Case {
	return []Case{
		{Name: "tuple_serialize", PerOpTuples: 1, Bench: TupleSerialize},
		{Name: "tuple_deserialize", PerOpTuples: 1, Bench: TupleDeserialize},
		{Name: "worker_message_encode", PerOpTuples: 1, Bench: WorkerMessageEncode},
		{Name: "worker_message_decode", PerOpTuples: 1, Bench: WorkerMessageDecode},
		{Name: "control_envelope_encode", Bench: ControlEnvelopeEncode},
		{Name: "tree_nonblocking_480", Bench: TreeNonBlocking480},
		{Name: "tree_scaleup_480", Bench: TreeScaleUp480},
		{Name: "trace_record_off", PerOpTuples: 1, Bench: TraceRecordOff},
		{Name: "trace_record_on", PerOpTuples: 1, Bench: TraceRecordOn},
		{Name: "engine_pipeline_ckpt_off", PerOpTuples: 1, Bench: EnginePipelineCkptOff},
		{Name: "engine_pipeline_ckpt_1s", PerOpTuples: 1, Bench: EnginePipelineCkpt1s},
	}
}

// Tuple returns the canonical benchmark tuple (a ride-hailing style record:
// id, driver key, two coordinates, a flag).
func Tuple() *tuple.Tuple {
	return &tuple.Tuple{
		Stream:     "requests",
		ID:         12345,
		SrcTask:    3,
		RootEmitNS: 1,
		Values:     []tuple.Value{int64(42), "drv-001234", 30.65, 104.06, true},
	}
}

// TupleSerialize measures Encoder.EncodeTuple steady state (0 allocs/op).
func TupleSerialize(b *testing.B) {
	enc := tuple.NewEncoder()
	tp := Tuple()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := enc.EncodeTuple(tp); err != nil {
			b.Fatal(err)
		}
	}
}

// TupleDeserialize measures DecodeTuple: it validates every field and
// allocates only the Tuple, which reads its fields from the input buffer
// (1 alloc/op).
func TupleDeserialize(b *testing.B) {
	buf, err := tuple.AppendTuple(nil, Tuple())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := tuple.DecodeTuple(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// WorkerMessageEncode measures AppendWorkerMessage into a reused buffer
// (0 allocs/op).
func WorkerMessageEncode(b *testing.B) {
	payload, _ := tuple.AppendTuple(nil, Tuple())
	msg := &tuple.WorkerMessage{Kind: tuple.KindWorkerMessage, DstIDs: []int32{1, 2, 3, 4, 5, 6, 7, 8}, Payload: payload}
	b.ReportAllocs()
	var buf []byte
	for i := 0; i < b.N; i++ {
		buf = tuple.AppendWorkerMessage(buf[:0], msg)
	}
}

// WorkerMessageDecode measures DecodeWorkerMessageInto with a reused scratch
// (0 allocs/op steady state).
func WorkerMessageDecode(b *testing.B) {
	payload, _ := tuple.AppendTuple(nil, Tuple())
	raw := tuple.AppendWorkerMessage(nil, &tuple.WorkerMessage{
		Kind: tuple.KindWorkerMessage, DstIDs: []int32{1, 2, 3, 4, 5, 6, 7, 8}, Payload: payload,
	})
	var scratch tuple.WorkerMessage
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := tuple.DecodeWorkerMessageInto(&scratch, raw); err != nil {
			b.Fatal(err)
		}
	}
}

// ControlEnvelopeEncode measures the pooled control-plane envelope encode
// used by credit grants and heartbeats.
func ControlEnvelopeEncode(b *testing.B) {
	enc := tuple.NewEncoder()
	cm := &tuple.ControlMessage{Type: tuple.CtrlCredit, Node: 7, Credits: 1 << 30}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		enc.EncodeControlEnvelope(cm)
	}
}

func destIDs(n int) []multicast.NodeID {
	out := make([]multicast.NodeID, n)
	for i := range out {
		out[i] = multicast.NodeID(i + 1)
	}
	return out
}

// TreeNonBlocking480 measures building the paper-scale non-blocking
// multicast tree.
func TreeNonBlocking480(b *testing.B) {
	dests := destIDs(480)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		multicast.BuildNonBlocking(0, dests, 3)
	}
}

// TraceRecordOff measures the instrumented hot path with tracing disabled:
// serialize plus the Record/RecordHop/PeekTraceID calls every traced stage
// makes, all of which must short-circuit to nothing (0 allocs/op). This is
// the price every tuple pays when -trace-sample-every is 0; the perf gate
// holds it within noise of plain tuple_serialize.
func TraceRecordOff(b *testing.B) {
	traceOverhead(b, obs.NewScope(obs.Config{}).Tracer)
}

// TraceRecordOn measures the same path with every tuple sampled — the
// worst-case tracing-enabled overhead (pooled span records; bounded
// allocations).
func TraceRecordOn(b *testing.B) {
	traceOverhead(b, obs.NewScope(obs.Config{TraceSampleEvery: 1}).Tracer)
}

func traceOverhead(b *testing.B, tr *obs.Tracer) {
	enc := tuple.NewEncoder()
	tp := Tuple()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tp.TraceID = tr.Sample()
		t0 := time.Now()
		buf, err := enc.EncodeTuple(tp)
		if err != nil {
			b.Fatal(err)
		}
		tr.Record(tp.TraceID, obs.StageSerialize, 0, t0, time.Since(t0))
		if id := tuple.PeekTraceID(buf); id != tp.TraceID {
			b.Fatal("trace id peek mismatch")
		}
		tr.RecordHop(tp.TraceID, obs.StageTreeHop, 0, 1, 1, 1, 2, t0, time.Since(t0))
	}
}

// TreeScaleUp480 measures the dynamic scale-up switch at paper scale.
func TreeScaleUp480(b *testing.B) {
	base := multicast.BuildNonBlocking(0, destIDs(480), 2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr := base.Clone()
		multicast.ScaleUp(tr, 5)
	}
}
