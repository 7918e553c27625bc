package main

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"whale/internal/core"
	"whale/internal/dsps"
	"whale/internal/kafkalite"
	"whale/internal/snapshot"
	"whale/internal/tuple"
	"whale/internal/workload"
)

const (
	stockWorkers  = 4
	stockMatchers = 8
	stockVolumes  = 2
	stockPool     = 1 << 17 // distinct pre-generated records, replayed in order
	stockRate     = 10000   // paced rate, records/s
	stockAhead    = 8192    // saturate phase: records the producer may lead the spout by
	// stockPending is MaxSpoutPending, the bound that closes the saturate
	// phase's loop. At 2048 the completion rate swings between next to
	// nothing and 36k per 250 ms bucket for a second at a time and the
	// phase read 86-123k/s from run to run; at 512 it reads 76-85k/s. What
	// stalls the deeper pipeline is not established — the credit counters
	// (dsps.credit_timeouts, dsps.sat_credit_wait_ns_per_tuple) read 0 at
	// both settings — and is left to a later issue.
	stockPending = 512
	stockTopic   = "records"
	stockSeqAt   = 4 // field carrying the record's offset, after the four the operators read

	checkpointEvery = 250 * time.Millisecond
)

// stock is the stock-exchange pipeline fed from a kafkalite topic through
// the reliable spout, with acking and 250 ms checkpoints on: the same data
// path as the others with control traffic flowing against it. One splitter
// keeps per-symbol order, so total volume and trade count are deterministic.
type stock struct {
	recs [][]byte      // encoded record values
	syms []tuple.Value // boxed symbol names, by index

	refVolume, refTrades int64
}

func newStock(seed int64) *stock {
	w := &stock{}
	cfg := workload.StockConfig{Seed: seed}
	gen := workload.NewStockGen(cfg)
	index := map[string]uint32{}
	for i := 0; i < stockPool; i++ {
		sym, side, price, qty := gen.Next()
		// StockMatcherBolt matches only against the oldest resting order
		// and stops at the first that does not cross, so one stale order at
		// the head of a book blocks it for good and the book — and the cost
		// of every later order on that symbol — grows with the length of
		// the run. Bids at twice and asks at half the symbol's walking
		// price always cross, which keeps the operator's state, and so its
		// cost per record, the same from the first second to the last.
		if side == workload.SideBuy {
			price *= 2
		} else {
			price /= 2
		}
		id, ok := index[sym]
		if !ok {
			id = uint32(len(w.syms))
			index[sym] = id
			w.syms = append(w.syms, sym)
		}
		v := make([]byte, 21)
		binary.LittleEndian.PutUint32(v, id)
		v[4] = side[0]
		binary.LittleEndian.PutUint64(v[5:], math.Float64bits(price))
		binary.LittleEndian.PutUint64(v[13:], uint64(qty))
		w.recs = append(w.recs, v)
	}
	return w
}

var stockSides = map[byte]tuple.Value{workload.SideBuy[0]: workload.SideBuy, workload.SideSell[0]: workload.SideSell}

// decode turns a record into the spout's tuple: symbol, side, price,
// quantity, and the record's offset as the benchmark's sequence number.
func (w *stock) decode(r kafkalite.Record) []tuple.Value {
	v := r.Value
	return []tuple.Value{
		w.syms[binary.LittleEndian.Uint32(v)],
		stockSides[v[4]],
		math.Float64frombits(binary.LittleEndian.Uint64(v[5:])),
		int64(binary.LittleEndian.Uint64(v[13:])),
		r.Offset,
	}
}

func (w *stock) name() string        { return "stock_reliable" }
func (w *stock) system() core.System { return core.Whale }
func (w *stock) pacedRate() int      { return stockRate }

// chain: first is the splitter starting; the splitter's own microsecond
// and the hop to the matcher read as transit.
func (w *stock) chain(rec *recorder) []boundary {
	return append(genCuts(rec), boundary{"kafkalite.source_wait_us_mean", rec.first}, boundary{"dsps.transit_us_mean", rec.lastStart},
		boundary{"dsps.operator_us_mean", rec.done})
}

func (w *stock) sample() (*tuple.Tuple, int) {
	vals := w.decode(kafkalite.Record{Offset: 1 << 20, Value: w.recs[0]})
	return &tuple.Tuple{Stream: workload.StreamBuy, Values: vals, ID: 1 << 20, RootEmitNS: 1, RootID: 1, AckVal: 1, Epoch: 1}, 1
}

// stockSplit wraps the splitter: the first operator downstream of the
// spout, and the last effect of a record it filters out.
type stockSplit struct {
	workload.SplitBolt
	rec *recorder
}

func (s *stockSplit) Execute(tp *tuple.Tuple, c *dsps.Collector) {
	seq := tp.Int(stockSeqAt)
	if s.rec.traced {
		s.rec.first[seq] = s.rec.now()
	}
	s.SplitBolt.Execute(tp, c)
	if tp.Float(2) <= 0 || tp.Int(3) <= 0 { // the splitter's own filter rule
		s.rec.cnt[seq].Add(1)
		s.rec.markDone(seq)
	}
}

// stockMatch wraps the order-book matcher: a record's last effect is its
// Execute returning (the trades it emits are the aggregate the run checks).
type stockMatch struct {
	workload.StockMatcherBolt
	rec *recorder
}

func (m *stockMatch) Execute(tp *tuple.Tuple, c *dsps.Collector) {
	seq := tp.Int(stockSeqAt)
	if m.rec.traced {
		m.rec.lastStart[seq] = m.rec.now()
	}
	m.StockMatcherBolt.Execute(tp, c)
	if m.rec.traced {
		m.rec.lastEnd[seq] = m.rec.now()
	}
	m.rec.cnt[seq].Add(1)
	m.rec.markDone(seq)
}

// stockVolume is the sink: per-symbol executed volume, checkpointed.
type stockVolume struct {
	local  map[string]int64
	volume atomic.Int64
	trades atomic.Int64
}

func (v *stockVolume) Prepare(*dsps.TaskContext) { v.local = map[string]int64{} }
func (v *stockVolume) Cleanup()                  {}

func (v *stockVolume) Execute(tp *tuple.Tuple, _ *dsps.Collector) {
	qty := tp.Int(2)
	v.local[tp.StringAt(0)] += qty
	v.volume.Add(qty)
	v.trades.Add(1)
}

// SnapshotState implements snapshot.Snapshotter over the per-symbol map,
// in symbol order so equal states encode equally.
func (v *stockVolume) SnapshotState() ([]byte, error) {
	syms := make([]string, 0, len(v.local))
	for s := range v.local {
		syms = append(syms, s)
	}
	sort.Strings(syms)
	out := binary.LittleEndian.AppendUint64(nil, uint64(v.trades.Load()))
	for _, s := range syms {
		out = binary.LittleEndian.AppendUint16(out, uint16(len(s)))
		out = append(out, s...)
		out = binary.LittleEndian.AppendUint64(out, uint64(v.local[s]))
	}
	return out, nil
}

// RestoreState implements snapshot.Snapshotter.
func (v *stockVolume) RestoreState(data []byte) error {
	v.local = map[string]int64{}
	v.volume.Store(0)
	v.trades.Store(0)
	if data == nil {
		return nil
	}
	if len(data) < 8 {
		return fmt.Errorf("volume snapshot: %d bytes", len(data))
	}
	v.trades.Store(int64(binary.LittleEndian.Uint64(data)))
	for off := 8; off < len(data); {
		if off+2 > len(data) {
			return fmt.Errorf("volume snapshot: truncated at %d", off)
		}
		n := int(binary.LittleEndian.Uint16(data[off:]))
		off += 2
		if off+n+8 > len(data) {
			return fmt.Errorf("volume snapshot: truncated at %d", off)
		}
		qty := int64(binary.LittleEndian.Uint64(data[off+n:]))
		v.local[string(data[off:off+n])] = qty
		v.volume.Add(qty)
		off += n + 8
	}
	return nil
}

var _ snapshot.Snapshotter = (*stockVolume)(nil)

func (w *stock) launch(rec *recorder, traceEvery int64) (*instance, error) {
	broker := kafkalite.NewBroker()
	if err := broker.CreateTopic(stockTopic, 1, 0); err != nil {
		return nil, err
	}
	var mu sync.Mutex
	var sinks []*stockVolume
	var decoded atomic.Int64 // records the spout has emitted, redeliveries included
	var lagMax atomic.Int64  // paced phases: most records the spout was behind the producer

	// The producer is the load generator here: one goroutine appending to
	// the topic on the generator's schedule.
	var produceErr atomic.Pointer[error]
	gen := newGenerator(rec, func(seq int64) {
		if _, err := broker.ProduceTo(stockTopic, 0, nil, w.recs[seq%stockPool]); err != nil {
			produceErr.CompareAndSwap(nil, &err)
		}
	})
	gen.gate = func() bool { return gen.seq-decoded.Load() < stockAhead }

	b := dsps.NewTopologyBuilder()
	b.Spout("records-src", func() dsps.Spout {
		return &kafkalite.Spout{
			Broker: broker, Topic: stockTopic, Group: "bench", Stream: workload.StreamRecords, Reliable: true,
			Decode: func(r kafkalite.Record) []tuple.Value {
				decoded.Add(1)
				if lag := gen.emitted.Load() - r.Offset; lag > lagMax.Load() && gen.ack.Load().kind == phasePaced {
					lagMax.Store(lag) // single writer: the spout's goroutine
				}
				return w.decode(r)
			},
		}
	}, 1)
	b.Bolt("split", func() dsps.Bolt { return &stockSplit{rec: rec} }, 1).
		ShuffleStream("records-src", workload.StreamRecords)
	b.Bolt("matcher", func() dsps.Bolt { return &stockMatch{rec: rec} }, stockMatchers).
		FieldsStream("split", workload.StreamBuy, 0).
		FieldsStream("split", workload.StreamSell, 0)
	b.Bolt("volume", func() dsps.Bolt {
		v := &stockVolume{}
		mu.Lock()
		sinks = append(sinks, v)
		mu.Unlock()
		return v
	}, stockVolumes).FieldsStream("matcher", workload.StreamTrades, 0)
	topo, err := b.Build()
	if err != nil {
		return nil, err
	}
	opt := core.Options{
		Workers: stockWorkers, TraceSampleEvery: traceEvery,
		AckEnabled: true, MaxSpoutPending: stockPending,
		CheckpointInterval: checkpointEvery, CheckpointStore: snapshot.NewMemStore(),
	}
	eng, err := w.system().Launch(topo, opt)
	if err != nil {
		return nil, err
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			gen.step()
		}
	}()

	in := &instance{eng: eng, gen: gen, lagMax: &lagMax}
	in.halt = func() {
		stop.Store(true)
		wg.Wait()
	}
	totals := func() (volume, trades int64) {
		mu.Lock()
		defer mu.Unlock()
		for _, v := range sinks {
			volume += v.volume.Load()
			trades += v.trades.Load()
		}
		return volume, trades
	}
	// Settled: every record's tree acked, which also means every trade it
	// caused has reached a volume sink.
	in.settled = func(n int64) bool { return eng.Metrics().TuplesAcked.Value() >= n }
	in.verify = func(n int64) (int64, []string) {
		var failed int64
		var detail []string
		if errp := produceErr.Load(); errp != nil {
			failed++
			detail = note(detail, "produce: %v", *errp)
		}
		for seq := int64(0); seq < n; seq++ {
			if c := rec.cnt[seq].Load(); c != 1 || rec.done[seq] == 0 {
				failed++
				detail = note(detail, "record %d took effect %d times", seq, c)
			}
		}
		if acked, emitted := eng.Metrics().TuplesAcked.Value(), decoded.Load(); acked != n || emitted != n {
			failed += abs64(acked-n) + abs64(emitted-n)
			detail = note(detail, "%d records produced, %d emitted by the spout, %d acked", n, emitted, acked)
		}
		if volume, trades := totals(); volume != w.refVolume || trades != w.refTrades {
			failed++
			detail = note(detail, "volume %d in %d trades, reference %d in %d", volume, trades, w.refVolume, w.refTrades)
		}
		return failed, detail
	}
	return in, nil
}

// reference runs split → one matcher holding every book → volume on the
// calling goroutine over the first n records.
func (w *stock) reference(n int64) int64 {
	w.refVolume, w.refTrades = 0, 0
	split := &workload.SplitBolt{}
	match := &workload.StockMatcherBolt{}
	match.Prepare(nil)
	toVolume := dsps.NewTestCollector(func(_ string, v []tuple.Value) {
		w.refVolume += v[2].(int64)
		w.refTrades++
	})
	toMatch := dsps.NewTestCollector(func(stream string, v []tuple.Value) {
		match.Execute(&tuple.Tuple{Stream: stream, Values: v}, toVolume)
	})
	for seq := int64(0); seq < n; seq++ {
		vals := w.decode(kafkalite.Record{Offset: seq, Value: w.recs[seq%stockPool]})
		split.Execute(&tuple.Tuple{Stream: workload.StreamRecords, Values: vals}, toMatch)
	}
	return n
}
