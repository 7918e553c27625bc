package whale_test

import (
	"sync/atomic"
	"testing"
	"time"

	"whale"
)

// wordSpout emits a fixed set of words.
type wordSpout struct {
	words []string
	i     int
}

func (s *wordSpout) Open(*whale.TaskContext) {}
func (s *wordSpout) Next(c *whale.Collector) bool {
	if s.i >= len(s.words) {
		return false
	}
	c.Emit(s.words[s.i], int64(1))
	s.i++
	return true
}
func (s *wordSpout) Close() {}

// broadcastCounter counts tuples per instance.
type broadcastCounter struct {
	total *atomic.Int64
}

func (b *broadcastCounter) Prepare(*whale.TaskContext) {}
func (b *broadcastCounter) Execute(t *whale.Tuple, _ *whale.Collector) {
	b.total.Add(1)
}
func (b *broadcastCounter) Cleanup() {}

func TestPublicAPIQuickstart(t *testing.T) {
	words := []string{"to", "be", "or", "not", "to", "be"}
	var total atomic.Int64
	b := whale.NewTopologyBuilder()
	b.Spout("words", func() whale.Spout { return &wordSpout{words: words} }, 1)
	b.Bolt("count", func() whale.Bolt { return &broadcastCounter{total: &total} }, 6).All("words")
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	cluster, err := whale.Run(topo, whale.SystemWhale, whale.Options{
		Workers: 3, InitialDstar: 2,
		MMS: 4 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	cluster.WaitSources()
	if !cluster.Drain(15 * time.Second) {
		cluster.Shutdown()
		t.Fatal("drain failed")
	}
	cluster.Shutdown()
	if got := total.Load(); got != int64(len(words)*6) {
		t.Fatalf("broadcast delivered %d, want %d", got, len(words)*6)
	}
	if cluster.Metrics().TuplesEmitted.Value() == 0 {
		t.Fatal("metrics empty")
	}
}

func TestPublicAPIAllSystems(t *testing.T) {
	for _, sys := range []whale.System{
		whale.SystemStorm, whale.SystemRDMAStorm, whale.SystemWhaleWOC,
		whale.SystemWhaleWOCRDMA, whale.SystemWhaleSequential,
		whale.SystemRDMC, whale.SystemWhale,
	} {
		t.Run(sys.String(), func(t *testing.T) {
			var total atomic.Int64
			b := whale.NewTopologyBuilder()
			b.Spout("src", func() whale.Spout { return &wordSpout{words: []string{"a", "b", "c", "d"}} }, 1)
			b.Bolt("sink", func() whale.Bolt { return &broadcastCounter{total: &total} }, 4).All("src")
			topo, err := b.Build()
			if err != nil {
				t.Fatal(err)
			}
			cluster, err := whale.Run(topo, sys, whale.Options{
				Workers: 2, Transport: whale.TransportInproc, FixedDstar: sys != whale.SystemWhale,
			})
			if err != nil {
				t.Fatal(err)
			}
			cluster.WaitSources()
			cluster.Drain(10 * time.Second)
			cluster.Shutdown()
			if total.Load() != 16 {
				t.Fatalf("delivered %d, want 16", total.Load())
			}
		})
	}
}

func TestNewTestCollector(t *testing.T) {
	var streams []string
	c := whale.NewTestCollector(func(stream string, values []whale.Value) {
		streams = append(streams, stream)
	})
	c.Emit(int64(1))
	c.EmitTo("named", "x")
	if len(streams) != 2 || streams[1] != "named" {
		t.Fatalf("streams %v", streams)
	}
}
