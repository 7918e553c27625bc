// Benchmarks regenerating the paper's evaluation: one testing.B benchmark
// per table and figure (each iteration runs the experiment in quick mode;
// use cmd/whalebench for the full-size tables). The core-primitive
// benchmarks live beside the code they time, in internal/tuple, obs,
// multicast, queueing and dsps.
//
//	go test -bench=. -benchmem
package whale_test

import (
	"testing"

	"whale/internal/bench"
)

// benchExperiment runs one registered experiment per iteration.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		rep, err := bench.Run(id, true)
		if err != nil {
			b.Fatal(err)
		}
		if len(rep.Rows) == 0 {
			b.Fatal("empty report")
		}
	}
}

func BenchmarkTable2Datasets(b *testing.B)             { benchExperiment(b, "table2") }
func BenchmarkFig2StormBottleneck(b *testing.B)        { benchExperiment(b, "fig2") }
func BenchmarkFig3RDMCBlocking(b *testing.B)           { benchExperiment(b, "fig3") }
func BenchmarkFig11MMS(b *testing.B)                   { benchExperiment(b, "fig11") }
func BenchmarkFig13RideThroughput(b *testing.B)        { benchExperiment(b, "fig13") }
func BenchmarkFig14RideLatency(b *testing.B)           { benchExperiment(b, "fig14") }
func BenchmarkFig15StockThroughput(b *testing.B)       { benchExperiment(b, "fig15") }
func BenchmarkFig16StockLatency(b *testing.B)          { benchExperiment(b, "fig16") }
func BenchmarkFig17TreeThroughput(b *testing.B)        { benchExperiment(b, "fig17") }
func BenchmarkFig18TreeLatency(b *testing.B)           { benchExperiment(b, "fig18") }
func BenchmarkFig19TreeThroughputStock(b *testing.B)   { benchExperiment(b, "fig19") }
func BenchmarkFig20TreeLatencyStock(b *testing.B)      { benchExperiment(b, "fig20") }
func BenchmarkFig21MulticastLatency(b *testing.B)      { benchExperiment(b, "fig21") }
func BenchmarkFig22MulticastLatencyStock(b *testing.B) { benchExperiment(b, "fig22") }
func BenchmarkFig23DynamicThroughput(b *testing.B)     { benchExperiment(b, "fig23") }
func BenchmarkFig24DynamicLatency(b *testing.B)        { benchExperiment(b, "fig24") }
func BenchmarkFig25CommTime(b *testing.B)              { benchExperiment(b, "fig25") }
func BenchmarkFig26SerializationRatio(b *testing.B)    { benchExperiment(b, "fig26") }
func BenchmarkFig27TrafficRide(b *testing.B)           { benchExperiment(b, "fig27") }
func BenchmarkFig28TrafficStock(b *testing.B)          { benchExperiment(b, "fig28") }
func BenchmarkFig29VerbsThroughput(b *testing.B)       { benchExperiment(b, "fig29") }
func BenchmarkFig30VerbsLatency(b *testing.B)          { benchExperiment(b, "fig30") }
func BenchmarkFig31DiffVerbsThroughput(b *testing.B)   { benchExperiment(b, "fig31") }
func BenchmarkFig32DiffVerbsLatency(b *testing.B)      { benchExperiment(b, "fig32") }
func BenchmarkFig33Racks(b *testing.B)                 { benchExperiment(b, "fig33") }
func BenchmarkFig34RacksLatency(b *testing.B)          { benchExperiment(b, "fig34") }
func BenchmarkAblationWaterline(b *testing.B)          { benchExperiment(b, "ablation-waterline") }
func BenchmarkAblationSmoothing(b *testing.B)          { benchExperiment(b, "ablation-smoothing") }
func BenchmarkAblationDstar(b *testing.B)              { benchExperiment(b, "ablation-dstar") }
func BenchmarkBottleneckAttribution(b *testing.B)      { benchExperiment(b, "bottleneck") }
