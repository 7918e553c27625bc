package sim

import (
	"math"
	"math/rand"
	"testing"
)

func TestEventOrdering(t *testing.T) {
	e := NewEngine()
	var order []int
	e.At(300, func() { order = append(order, 3) })
	e.At(100, func() { order = append(order, 1) })
	e.At(200, func() { order = append(order, 2) })
	e.At(100, func() { order = append(order, 10) }) // same time: FIFO
	e.Run()
	want := []int{1, 10, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order %v, want %v", order, want)
		}
	}
	if e.Now() != 300 {
		t.Fatalf("clock %d", e.Now())
	}
}

// TestEventOrderingDeepHeap: with many pending events, few distinct times
// and events scheduled from inside callbacks, events run in (time,
// scheduling order) order.
func TestEventOrderingDeepHeap(t *testing.T) {
	e := NewEngine()
	g := rand.New(rand.NewSource(1))
	type stamp struct {
		at  Time
		seq int
	}
	var ran []stamp
	seq := 0
	var schedule func(at Time)
	schedule = func(at Time) {
		seq++
		s := stamp{at, seq}
		e.At(at, func() {
			ran = append(ran, s)
			if len(ran) < 2000 && g.Intn(2) == 0 {
				schedule(e.Now() + Time(g.Intn(5)))
			}
		})
	}
	for i := 0; i < 1000; i++ {
		schedule(Time(g.Intn(50)))
	}
	e.Run()
	if len(ran) != seq {
		t.Fatalf("ran %d of %d events", len(ran), seq)
	}
	for i := 1; i < len(ran); i++ {
		a, b := ran[i-1], ran[i]
		if a.at > b.at || (a.at == b.at && a.seq > b.seq) {
			t.Fatalf("event %d %+v ran after %+v", i, b, a)
		}
	}
}

func TestAfterAndNesting(t *testing.T) {
	e := NewEngine()
	var hits []Time
	e.After(50, func() {
		hits = append(hits, e.Now())
		e.After(25, func() { hits = append(hits, e.Now()) })
	})
	e.Run()
	if len(hits) != 2 || hits[0] != 50 || hits[1] != 75 {
		t.Fatalf("hits %v", hits)
	}
}

func TestSchedulingIntoPastPanics(t *testing.T) {
	e := NewEngine()
	e.At(100, func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic")
			}
		}()
		e.At(50, func() {})
	})
	e.Run()
}

func TestRunUntil(t *testing.T) {
	e := NewEngine()
	fired := 0
	e.At(10, func() { fired++ })
	e.At(20, func() { fired++ })
	e.At(30, func() { fired++ })
	e.RunUntil(20)
	if fired != 2 || e.Now() != 20 {
		t.Fatalf("fired=%d now=%d", fired, e.Now())
	}
	if e.Pending() != 1 {
		t.Fatalf("pending %d", e.Pending())
	}
	e.Run()
	if fired != 3 {
		t.Fatalf("fired=%d", fired)
	}
}

func TestServerFIFOAndBusy(t *testing.T) {
	e := NewEngine()
	s := NewServer(e, "cpu", 0)
	var done []Time
	s.Submit(100, func() { done = append(done, e.Now()) })
	s.Submit(50, func() { done = append(done, e.Now()) })
	s.Submit(10, func() { done = append(done, e.Now()) })
	e.Run()
	want := []Time{100, 150, 160}
	for i := range want {
		if done[i] != want[i] {
			t.Fatalf("completions %v, want %v", done, want)
		}
	}
	if s.Served != 3 || s.BusyNS != 160 {
		t.Fatalf("served=%d busy=%d", s.Served, s.BusyNS)
	}
	if u := s.Utilization(); u != 1 {
		t.Fatalf("utilization %f", u)
	}
}

func TestServerIdleGap(t *testing.T) {
	e := NewEngine()
	s := NewServer(e, "cpu", 0)
	s.Submit(10, nil)
	e.Run() // now = 10
	e.At(100, func() { s.Submit(10, nil) })
	e.Run() // second job runs 100..110
	if e.Now() != 110 {
		t.Fatalf("now %d", e.Now())
	}
	if got := s.Utilization(); math.Abs(got-20.0/110.0) > 1e-9 {
		t.Fatalf("utilization %f", got)
	}
}

func TestServerCapacityDrops(t *testing.T) {
	e := NewEngine()
	s := NewServer(e, "q", 2)
	if !s.Submit(100, nil) || !s.Submit(100, nil) {
		t.Fatal("first two submits must fit")
	}
	if s.Submit(100, nil) {
		t.Fatal("third submit must drop")
	}
	if s.Dropped != 1 || s.QueueLen() != 2 {
		t.Fatalf("dropped=%d qlen=%d", s.Dropped, s.QueueLen())
	}
	e.Run()
	// After draining there is room again.
	if !s.Submit(10, nil) {
		t.Fatal("submit after drain dropped")
	}
	if s.PeakQueue() != 2 {
		t.Fatalf("peak %d", s.PeakQueue())
	}
}

func TestServerDelay(t *testing.T) {
	e := NewEngine()
	s := NewServer(e, "q", 0)
	if s.Delay() != 0 {
		t.Fatal("idle server has delay")
	}
	s.Submit(100, nil)
	s.Submit(100, nil)
	if s.Delay() != 200 {
		t.Fatalf("delay %d", s.Delay())
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Exp(1000) != b.Exp(1000) {
			t.Fatal("same seed diverged")
		}
	}
	c := NewRNG(43)
	same := true
	a2 := NewRNG(42)
	for i := 0; i < 10; i++ {
		if a2.Exp(1000) != c.Exp(1000) {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestExpMeanApproximatesRate(t *testing.T) {
	g := NewRNG(7)
	const rate = 10000.0 // 10k/s -> mean 100µs = 1e5 ns
	var sum float64
	const n = 20000
	for i := 0; i < n; i++ {
		sum += float64(g.Exp(rate))
	}
	mean := sum / n
	if math.Abs(mean-1e5) > 0.05e5 {
		t.Fatalf("mean interarrival %f ns, want ~1e5", mean)
	}
}

func TestArrivalsPoissonCount(t *testing.T) {
	e := NewEngine()
	g := NewRNG(1)
	count := 0
	const rate, horizon = 5000.0, Time(1e9)
	Arrivals(e, g, horizon, func(Time) float64 { return rate }, func() { count++ })
	e.RunUntil(horizon)
	// Expect ~5000 arrivals in 1s, within 5 sigma (~353).
	if math.Abs(float64(count)-5000) > 400 {
		t.Fatalf("arrivals %d, want ~5000", count)
	}
}

func TestArrivalsTimeVaryingStops(t *testing.T) {
	e := NewEngine()
	g := NewRNG(2)
	count := 0
	// Rate goes to zero after 0.5s: the process must stop by itself.
	Arrivals(e, g, 1e9, func(now Time) float64 {
		if now > 5e8 {
			return 0
		}
		return 1000
	}, func() { count++ })
	e.Run()
	if count < 400 || count > 600 {
		t.Fatalf("arrivals %d, want ~500", count)
	}
	if e.Pending() != 0 {
		t.Fatal("events left after rate hit zero")
	}
}

func TestNegativeServicePanics(t *testing.T) {
	e := NewEngine()
	s := NewServer(e, "x", 0)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s.Submit(-1, nil)
}
