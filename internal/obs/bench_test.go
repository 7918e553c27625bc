package obs_test

import (
	"testing"
	"time"

	"whale/internal/obs"
	"whale/internal/tuple"
)

// BenchmarkTraceRecordOff measures the instrumented hot path with tracing
// disabled: serialize plus the Record/RecordHop/PeekTraceID calls every
// traced stage makes, all of which must short-circuit to nothing (0
// allocs/op; TestRecordDisabledZeroAlloc pins the alloc half). This is the
// price every tuple pays when -trace-sample-every is 0.
func BenchmarkTraceRecordOff(b *testing.B) {
	traceOverhead(b, obs.NewScope(obs.Config{}).Tracer)
}

// BenchmarkTraceRecordOn measures the same path with every tuple sampled —
// the worst-case tracing-enabled overhead (pooled span records; bounded
// allocations).
func BenchmarkTraceRecordOn(b *testing.B) {
	traceOverhead(b, obs.NewScope(obs.Config{TraceSampleEvery: 1}).Tracer)
}

func traceOverhead(b *testing.B, tr *obs.Tracer) {
	enc := tuple.NewEncoder()
	tp := &tuple.Tuple{
		Stream:     "requests",
		ID:         12345,
		SrcTask:    3,
		RootEmitNS: 1,
		Values:     []tuple.Value{int64(42), "drv-001234", 30.65, 104.06, true},
	}
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
