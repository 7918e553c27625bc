package workload

import (
	"sync/atomic"
	"time"

	"whale/internal/dsps"
	"whale/internal/tuple"
	"whale/internal/window"
)

// Stream names in the stock-exchange topology.
const (
	StreamRecords = "records"
	StreamBuy     = "buy"
	StreamSell    = "sell"
	StreamTrades  = "trades"
)

// StockSpout emits exchange records on StreamRecords.
type StockSpout struct {
	gen   *StockGen
	limit *RateLimiter
	max   int64
	sent  int64
}

// NewStockSpoutFactory returns a spout factory; rate <= 0 means
// unthrottled, max <= 0 unbounded.
func NewStockSpoutFactory(cfg StockConfig, rate float64, max int64) func() dsps.Spout {
	return func() dsps.Spout {
		return &StockSpout{gen: NewStockGen(cfg), limit: NewRateLimiter(rate), max: max}
	}
}

// Open implements dsps.Spout.
func (s *StockSpout) Open(*dsps.TaskContext) {}

// Next implements dsps.Spout.
func (s *StockSpout) Next(c *dsps.Collector) bool {
	if s.max > 0 && s.sent >= s.max {
		return false
	}
	s.limit.Wait()
	sym, side, price, qty := s.gen.Next()
	c.EmitTo(StreamRecords, sym, side, price, qty)
	s.sent++
	return true
}

// Close implements dsps.Spout.
func (s *StockSpout) Close() {}

// SplitBolt filters records violating trading rules and divides the stream
// into a buying stream and a selling stream (paper §5.1).
type SplitBolt struct {
	// Filtered counts rejected records when non-nil.
	Filtered *atomic.Int64
}

// Prepare implements dsps.Bolt.
func (s *SplitBolt) Prepare(*dsps.TaskContext) {}

// Execute implements dsps.Bolt.
func (s *SplitBolt) Execute(tp *tuple.Tuple, c *dsps.Collector) {
	price, qty := tp.Float(2), tp.Int(3)
	if price <= 0 || qty <= 0 {
		if s.Filtered != nil {
			s.Filtered.Add(1)
		}
		return
	}
	if tp.StringAt(1) == SideBuy {
		c.EmitTo(StreamBuy, tp.Fields()...)
	} else {
		c.EmitTo(StreamSell, tp.Fields()...)
	}
}

// Cleanup implements dsps.Bolt.
func (s *SplitBolt) Cleanup() {}

// order is one resting order in a book.
type order struct {
	price float64
	qty   int64
}

// StockMatcherBolt joins the buy and sell streams per symbol: a buy
// matches the oldest resting sell with price <= bid (and vice versa),
// emitting executed trades on StreamTrades.
type StockMatcherBolt struct {
	buys  map[string][]order
	sells map[string][]order
}

// Prepare implements dsps.Bolt.
func (m *StockMatcherBolt) Prepare(*dsps.TaskContext) {
	m.buys = map[string][]order{}
	m.sells = map[string][]order{}
}

// Execute implements dsps.Bolt.
func (m *StockMatcherBolt) Execute(tp *tuple.Tuple, c *dsps.Collector) {
	sym := tp.StringAt(0)
	o := order{price: tp.Float(2), qty: tp.Int(3)}
	switch tp.Stream {
	case StreamBuy:
		o.qty = m.match(sym, o, m.sells, true, c)
		if o.qty > 0 {
			m.buys[sym] = append(m.buys[sym], o)
		}
	case StreamSell:
		o.qty = m.match(sym, o, m.buys, false, c)
		if o.qty > 0 {
			m.sells[sym] = append(m.sells[sym], o)
		}
	}
}

// match crosses the incoming order against the opposite book; isBuy says
// the incoming order is a buy. Executed quantity is emitted per fill; the
// incoming order's unfilled remainder is returned.
func (m *StockMatcherBolt) match(sym string, o order, book map[string][]order, isBuy bool, c *dsps.Collector) int64 {
	rest := book[sym]
	i := 0
	for ; i < len(rest) && o.qty > 0; i++ {
		r := &rest[i]
		crosses := (isBuy && r.price <= o.price) || (!isBuy && r.price >= o.price)
		if !crosses {
			break
		}
		exec := o.qty
		if r.qty < exec {
			exec = r.qty
		}
		o.qty -= exec
		r.qty -= exec
		c.EmitTo(StreamTrades, sym, r.price, exec)
		if r.qty > 0 {
			break
		}
	}
	// Drop fully filled resting orders.
	n := 0
	for _, r := range rest[:i] {
		if r.qty > 0 {
			rest[n] = r
			n++
		}
	}
	book[sym] = append(rest[:n], rest[i:]...)
	return o.qty
}

// Cleanup implements dsps.Bolt.
func (m *StockMatcherBolt) Cleanup() {}

// VolumeBolt computes real-time trading volume per symbol.
type VolumeBolt struct {
	// Volume accumulates total executed quantity when non-nil.
	Volume *atomic.Int64
	// Trades counts executions when non-nil.
	Trades *atomic.Int64
	local  map[string]int64
}

// Prepare implements dsps.Bolt.
func (v *VolumeBolt) Prepare(*dsps.TaskContext) { v.local = map[string]int64{} }

// Execute implements dsps.Bolt.
func (v *VolumeBolt) Execute(tp *tuple.Tuple, _ *dsps.Collector) {
	qty := tp.Int(2)
	v.local[tp.StringAt(0)] += qty
	if v.Volume != nil {
		v.Volume.Add(qty)
	}
	if v.Trades != nil {
		v.Trades.Add(1)
	}
}

// Cleanup implements dsps.Bolt.
func (v *VolumeBolt) Cleanup() {}

// StockTopologyConfig assembles the §5.1 stock-exchange application.
type StockTopologyConfig struct {
	Gen StockConfig
	// Splitters, Matchers, Aggregators are operator parallelisms.
	Splitters, Matchers, Aggregators int
	// Rate throttles the spout (0 = full speed); Max bounds it.
	Rate float64
	Max  int64
	// Counters (optional).
	Filtered, Volume, Trades *atomic.Int64
	// BroadcastRequests switches the matcher's input grouping to all
	// grouping (the one-to-many configuration used in the paper's
	// benchmark topologies; key grouping is the classical deployment).
	BroadcastToMatchers bool
	// WindowWidth, when set with OnWindow, adds a windowed-volume operator
	// reporting per-tumbling-window trading volume.
	WindowWidth time.Duration
	OnWindow    func(start, end, volume int64)
}

// BuildStockTopology builds: spout -> split (shuffle) -> matcher
// (buy/sell streams, fields- or all-grouped) -> volume aggregator.
func BuildStockTopology(cfg StockTopologyConfig) (*dsps.Topology, error) {
	if cfg.Splitters <= 0 {
		cfg.Splitters = 2
	}
	if cfg.Matchers <= 0 {
		cfg.Matchers = 4
	}
	if cfg.Aggregators <= 0 {
		cfg.Aggregators = 2
	}
	b := dsps.NewTopologyBuilder()
	b.Spout("records-src", NewStockSpoutFactory(cfg.Gen, cfg.Rate, cfg.Max), 1)
	b.Bolt("split", func() dsps.Bolt { return &SplitBolt{Filtered: cfg.Filtered} }, cfg.Splitters).
		ShuffleStream("records-src", StreamRecords)
	md := b.Bolt("matcher", func() dsps.Bolt { return &StockMatcherBolt{} }, cfg.Matchers)
	if cfg.BroadcastToMatchers {
		md.AllStream("split", StreamBuy).AllStream("split", StreamSell)
	} else {
		md.FieldsStream("split", StreamBuy, 0).FieldsStream("split", StreamSell, 0)
	}
	b.Bolt("volume", func() dsps.Bolt { return &VolumeBolt{Volume: cfg.Volume, Trades: cfg.Trades} }, cfg.Aggregators).
		FieldsStream("matcher", StreamTrades, 0)
	if cfg.WindowWidth > 0 && cfg.OnWindow != nil {
		b.Bolt("windowed-volume", func() dsps.Bolt {
			return &WindowedVolumeBolt{Width: cfg.WindowWidth, OnWindow: cfg.OnWindow}
		}, 1).FieldsStream("matcher", StreamTrades, 0).
			TickEvery(cfg.WindowWidth)
	}
	return b.Build()
}

// WindowedVolumeBolt computes trading volume per tumbling processing-time
// window — the "real-time trading volume" the paper's aggregation operator
// reports, bounded in state by the window substrate.
type WindowedVolumeBolt struct {
	// Width is the tumbling window length (default 100ms).
	Width time.Duration
	// OnWindow receives each fired window's total volume (called on the
	// executor goroutine).
	OnWindow func(start, end int64, volume int64)

	buf *window.Buffer[int64]
}

// Prepare implements dsps.Bolt.
func (v *WindowedVolumeBolt) Prepare(*dsps.TaskContext) {
	if v.Width <= 0 {
		v.Width = 100 * time.Millisecond
	}
	v.buf = window.NewBuffer[int64](window.Tumbling{Width: v.Width}, 0)
}

// Execute implements dsps.Bolt. Tick tuples (dsps.StreamTick) only advance
// the watermark, so windows fire on time even when trading pauses.
func (v *WindowedVolumeBolt) Execute(tp *tuple.Tuple, _ *dsps.Collector) {
	now := time.Now().UnixNano()
	if tp.Stream != dsps.StreamTick {
		v.buf.Add(now, tp.Int(2))
	}
	for _, f := range v.buf.Advance(now - v.Width.Nanoseconds()/10) {
		v.fire(f)
	}
}

func (v *WindowedVolumeBolt) fire(f window.Fired[int64]) {
	var sum int64
	for _, q := range f.Items {
		sum += q
	}
	if v.OnWindow != nil {
		v.OnWindow(f.Start, f.End, sum)
	}
}

// Cleanup implements dsps.Bolt: it flushes open windows.
func (v *WindowedVolumeBolt) Cleanup() {
	for _, f := range v.buf.Advance(1 << 62) {
		v.fire(f)
	}
}
