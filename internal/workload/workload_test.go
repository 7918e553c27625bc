package workload

import (
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"whale/internal/dsps"
	"whale/internal/transport"
	"whale/internal/tuple"
)

func TestRideGenDeterministicAndBounded(t *testing.T) {
	a := NewRideGen(RideConfig{Drivers: 100, Seed: 5})
	b := NewRideGen(RideConfig{Drivers: 100, Seed: 5})
	for i := 0; i < 1000; i++ {
		ida, lata, lona := a.NextLocation()
		idb, latb, lonb := b.NextLocation()
		if ida != idb || lata != latb || lona != lonb {
			t.Fatal("same seed diverged")
		}
		if lata < LatMin || lata > LatMax || lona < LonMin || lona > LonMax {
			t.Fatalf("location out of bounds: %f,%f", lata, lona)
		}
	}
	locs, reqs := a.Counts()
	if locs != 1000 || reqs != 0 {
		t.Fatalf("counts %d/%d", locs, reqs)
	}
	id, lat, lon := a.NextRequest()
	if id != 1 || lat < LatMin || lon < LonMin {
		t.Fatalf("request %d %f %f", id, lat, lon)
	}
}

func TestRideGenZipfSkew(t *testing.T) {
	g := NewRideGen(RideConfig{Drivers: 1000, Seed: 7})
	counts := map[string]int{}
	for i := 0; i < 20000; i++ {
		id, _, _ := g.NextLocation()
		counts[id]++
	}
	// Zipf: the hottest driver must be far above the mean.
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	if max < 5*(20000/len(counts)) {
		t.Fatalf("no skew: max %d over %d keys", max, len(counts))
	}
}

func TestHaversine(t *testing.T) {
	// One degree of latitude is ~111 km.
	d := Haversine(30.0, 104.0, 31.0, 104.0)
	if math.Abs(d-111) > 1.5 {
		t.Fatalf("1 degree lat = %f km", d)
	}
	if Haversine(30, 104, 30, 104) != 0 {
		t.Fatal("zero distance broken")
	}
}

func TestStockGen(t *testing.T) {
	g := NewStockGen(StockConfig{Symbols: 500, Seed: 3, InvalidFrac: 0.1})
	syms := map[string]bool{}
	invalid := 0
	for i := 0; i < 10000; i++ {
		sym, side, price, qty := g.Next()
		syms[sym] = true
		if side != SideBuy && side != SideSell {
			t.Fatalf("side %q", side)
		}
		if price <= 0 || qty <= 0 {
			invalid++
		}
	}
	if g.Count() != 10000 {
		t.Fatalf("count %d", g.Count())
	}
	if len(syms) < 50 {
		t.Fatalf("only %d symbols seen", len(syms))
	}
	if invalid < 500 || invalid > 1500 {
		t.Fatalf("invalid records %d, want ~1000", invalid)
	}
}

func TestStockGenNegativeFracDisables(t *testing.T) {
	g := NewStockGen(StockConfig{Symbols: 10, Seed: 3, InvalidFrac: -1})
	for i := 0; i < 1000; i++ {
		_, _, price, qty := g.Next()
		if price <= 0 || qty <= 0 {
			t.Fatal("invalid record with InvalidFrac < 0")
		}
	}
}

func TestTable2(t *testing.T) {
	rows := Table2(RideConfig{}, StockConfig{})
	if len(rows) != 4 {
		t.Fatalf("%d rows", len(rows))
	}
	if rows[0].Tuples != 13_000_000_000 || rows[1].Keys != 6_649 {
		t.Fatalf("paper rows wrong: %+v", rows[:2])
	}
}

func TestRateLimiterPacing(t *testing.T) {
	l := NewRateLimiter(2000) // 2k/s -> 100 events in ~50ms
	t0 := time.Now()
	for i := 0; i < 100; i++ {
		l.Wait()
	}
	el := time.Since(t0)
	if el < 30*time.Millisecond {
		t.Fatalf("100 events at 2k/s took only %v", el)
	}
	// Unlimited limiter must not sleep.
	u := NewRateLimiter(0)
	t0 = time.Now()
	for i := 0; i < 100000; i++ {
		u.Wait()
	}
	if time.Since(t0) > 100*time.Millisecond {
		t.Fatal("unlimited limiter slept")
	}
}

// locationsStored counts the driver locations the matchers have stored.
type locationsStored struct {
	dsps.Bolt
	n *atomic.Int64
}

func (m locationsStored) Execute(tp *tuple.Tuple, c *dsps.Collector) {
	m.Bolt.Execute(tp, c)
	if tp.Stream == StreamLocations {
		m.n.Add(1)
	}
}

// afterLocations holds a spout back until want locations are stored.
type afterLocations struct {
	dsps.Spout
	stored *atomic.Int64
	want   int64
}

func (s afterLocations) Next(c *dsps.Collector) bool {
	if s.stored.Load() < s.want {
		time.Sleep(100 * time.Microsecond)
		return true
	}
	return s.Spout.Next(c)
}

// TestRideTopologyEndToEnd releases the requests only once every location
// has reached its matcher: both spouts are unpaced, so without the gate a
// request can be matched against matchers that hold no driver yet.
func TestRideTopologyEndToEnd(t *testing.T) {
	const locations = 2000
	var matched, unmatched, stored atomic.Int64
	topo, err := BuildRideTopology(RideTopologyConfig{
		Gen:          RideConfig{Drivers: 300, Seed: 2},
		Matchers:     6,
		MaxLocations: locations,
		MaxRequests:  300,
		Matched:      &matched,
		Unmatched:    &unmatched,
	})
	if err != nil {
		t.Fatal(err)
	}
	matcher, requests := topo.Operators["matcher"], topo.Operators["requests-src"]
	boltFn, spoutFn := matcher.BoltFn, requests.SpoutFn
	matcher.BoltFn = func() dsps.Bolt { return locationsStored{boltFn(), &stored} }
	requests.SpoutFn = func() dsps.Spout { return afterLocations{spoutFn(), &stored, locations} }
	eng, err := dsps.Start(topo, dsps.Config{
		Workers: 3, Network: transport.NewInprocNetwork(0),
		Comm: dsps.WorkerOriented, Multicast: dsps.MulticastNonBlocking,
		FixedDstar: true, InitialDstar: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng.WaitSpouts()
	if !eng.Drain(20 * time.Second) {
		eng.Stop()
		t.Fatal("drain failed")
	}
	eng.Stop()
	total := matched.Load() + unmatched.Load()
	if total != 300 {
		t.Fatalf("finalized %d of 300 requests (matched %d, unmatched %d)",
			total, matched.Load(), unmatched.Load())
	}
	if matched.Load() == 0 {
		t.Fatal("no request matched any driver; join is broken")
	}
}

func TestStockTopologyEndToEnd(t *testing.T) {
	var filtered, volume, trades atomic.Int64
	topo, err := BuildStockTopology(StockTopologyConfig{
		Gen:      StockConfig{Symbols: 50, Seed: 4, InvalidFrac: 0.05},
		Matchers: 4,
		Max:      5000,
		Filtered: &filtered, Volume: &volume, Trades: &trades,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := dsps.Start(topo, dsps.Config{
		Workers: 2, Network: transport.NewInprocNetwork(0), Comm: dsps.WorkerOriented,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng.WaitSpouts()
	if !eng.Drain(20 * time.Second) {
		eng.Stop()
		t.Fatal("drain failed")
	}
	eng.Stop()
	if filtered.Load() == 0 {
		t.Fatal("split never filtered an invalid record")
	}
	if trades.Load() == 0 || volume.Load() == 0 {
		t.Fatalf("no trades executed (trades=%d volume=%d)", trades.Load(), volume.Load())
	}
}

func TestStockTopologyBroadcastVariant(t *testing.T) {
	var volume, trades atomic.Int64
	topo, err := BuildStockTopology(StockTopologyConfig{
		Gen:                 StockConfig{Symbols: 20, Seed: 4},
		Matchers:            4,
		Max:                 2000,
		Volume:              &volume,
		Trades:              &trades,
		BroadcastToMatchers: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := dsps.Start(topo, dsps.Config{
		Workers: 2, Network: transport.NewInprocNetwork(0),
		Comm: dsps.WorkerOriented, Multicast: dsps.MulticastBinomial,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng.WaitSpouts()
	if !eng.Drain(20 * time.Second) {
		eng.Stop()
		t.Fatal("drain failed")
	}
	eng.Stop()
	if trades.Load() == 0 {
		t.Fatal("broadcast variant executed no trades")
	}
}

// TestStockMatcherCrossingLogic unit-tests the order book directly.
func TestStockMatcherCrossingLogic(t *testing.T) {
	m := &StockMatcherBolt{}
	m.Prepare(nil)
	var tradesOut []int64
	collector := newTestCollector(func(tp []tuple.Value) {
		tradesOut = append(tradesOut, tp[2].(int64))
	})
	// A resting sell at 100 x 10.
	m.Execute(&tuple.Tuple{Stream: StreamSell, Values: []tuple.Value{"X", SideSell, 100.0, int64(10)}}, collector)
	if len(tradesOut) != 0 {
		t.Fatal("sell into empty book traded")
	}
	// A buy at 99 must not cross.
	m.Execute(&tuple.Tuple{Stream: StreamBuy, Values: []tuple.Value{"X", SideBuy, 99.0, int64(5)}}, collector)
	if len(tradesOut) != 0 {
		t.Fatal("non-crossing buy traded")
	}
	// A buy at 101 crosses for 10 (filling the sell) even though it wants 12.
	m.Execute(&tuple.Tuple{Stream: StreamBuy, Values: []tuple.Value{"X", SideBuy, 101.0, int64(12)}}, collector)
	if len(tradesOut) != 1 || tradesOut[0] != 10 {
		t.Fatalf("trades %v, want [10]", tradesOut)
	}
	// A sell at 98 crosses the resting buy remainder (2) and the earlier 99 buy (5).
	m.Execute(&tuple.Tuple{Stream: StreamSell, Values: []tuple.Value{"X", SideSell, 98.0, int64(10)}}, collector)
	var sum int64
	for _, q := range tradesOut[1:] {
		sum += q
	}
	if sum != 7 {
		t.Fatalf("crossing sell executed %d, want 7 (trades %v)", sum, tradesOut)
	}
}

// testCollector builds a real dsps.Collector is impossible outside the
// engine; instead exercise matcher logic through a tiny shim topology.
func newTestCollector(sink func([]tuple.Value)) *dsps.Collector {
	return dsps.NewTestCollector(func(stream string, values []tuple.Value) {
		if stream == StreamTrades {
			sink(values)
		}
	})
}

func TestWindowedVolumeBolt(t *testing.T) {
	type win struct{ start, end, vol int64 }
	var mu sync.Mutex
	var wins []win
	b := &WindowedVolumeBolt{
		Width: 20 * time.Millisecond,
		OnWindow: func(s, e, v int64) {
			mu.Lock()
			wins = append(wins, win{s, e, v})
			mu.Unlock()
		},
	}
	b.Prepare(nil)
	mk := func(qty int64) *tuple.Tuple {
		return &tuple.Tuple{Stream: StreamTrades, Values: []tuple.Value{"X", 10.0, qty}}
	}
	b.Execute(mk(5), nil)
	b.Execute(mk(7), nil)
	time.Sleep(30 * time.Millisecond)
	b.Execute(mk(11), nil) // lands in a later window; fires the first
	b.Cleanup()            // flushes the rest
	mu.Lock()
	defer mu.Unlock()
	var total int64
	for _, w := range wins {
		if w.end-w.start != (20 * time.Millisecond).Nanoseconds() {
			t.Fatalf("window span %d", w.end-w.start)
		}
		total += w.vol
	}
	if total != 23 {
		t.Fatalf("windowed volume %d, want 23 (windows %v)", total, wins)
	}
}
