package metrics

import (
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"testing/quick"
)

func TestBucketRoundTrip(t *testing.T) {
	// bucketLow(bucketIndex(v)) <= v, with relative error < 12.5%.
	for _, v := range []int64{0, 1, 7, 8, 15, 16, 17, 100, 1000, 1 << 20, 1<<40 + 12345, math.MaxInt64 / 2} {
		i := bucketIndex(v)
		low := bucketLow(i)
		if low > v {
			t.Fatalf("v=%d: bucketLow(%d)=%d > v", v, i, low)
		}
		if v >= 16 && float64(v-low) > 0.125*float64(v)+1 {
			t.Fatalf("v=%d: bucket lower bound %d too far", v, low)
		}
	}
}

func TestBucketIndexMonotone(t *testing.T) {
	prev := -1
	for v := int64(0); v < 4096; v++ {
		i := bucketIndex(v)
		if i < prev {
			t.Fatalf("bucketIndex(%d)=%d < previous %d", v, i, prev)
		}
		prev = i
	}
}

func TestQuickBucketInverse(t *testing.T) {
	f := func(raw int64) bool {
		v := raw
		if v < 0 {
			v = -v
		}
		i := bucketIndex(v)
		if i < 0 || i >= 64*8 {
			return false
		}
		low := bucketLow(i)
		// v must land in [low, nextLow).
		if low > v {
			return false
		}
		// v must fall before the next bucket's lower bound. Index 487 is the
		// last bucket reachable from a non-negative int64; bucket 488's
		// lower bound would overflow, so skip the upper check there.
		if i < 487 {
			return bucketLow(i+1) > v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramBasics(t *testing.T) {
	h := &Histogram{}
	for i := int64(1); i <= 100; i++ {
		h.Observe(i * 1000)
	}
	if h.Count() != 100 {
		t.Fatalf("count %d", h.Count())
	}
	if got, want := h.Mean(), 50500.0; math.Abs(got-want) > 1 {
		t.Fatalf("mean %f, want %f", got, want)
	}
	if h.Max() != 100000 {
		t.Fatalf("max %d", h.Max())
	}
	p50 := h.Quantile(0.5)
	if p50 < 40000 || p50 > 60000 {
		t.Fatalf("p50 %d out of range", p50)
	}
	p99 := h.Quantile(0.99)
	if p99 < 85000 || p99 > 100000 {
		t.Fatalf("p99 %d out of range", p99)
	}
	if h.Quantile(0) > h.Quantile(1) {
		t.Fatal("quantiles not monotone")
	}
	s := h.Snapshot()
	if s.Count != 100 || s.String() == "" {
		t.Fatalf("snapshot %+v", s)
	}
}

func TestHistogramEmpty(t *testing.T) {
	h := &Histogram{}
	if h.Mean() != 0 || h.Quantile(0.5) != 0 || h.Count() != 0 {
		t.Fatal("empty histogram must read zero")
	}
}

func TestHistogramNegativeClamps(t *testing.T) {
	h := &Histogram{}
	h.Observe(-5)
	if h.Count() != 1 || h.Quantile(0.5) != 0 {
		t.Fatal("negative observation must clamp to 0")
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := &Histogram{}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 10000; i++ {
				h.Observe(int64(r.Intn(1 << 20)))
			}
		}(g)
	}
	wg.Wait()
	if h.Count() != 80000 {
		t.Fatalf("count %d, want 80000", h.Count())
	}
}

func TestCounterGauge(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter %d", c.Value())
	}
	var g Gauge
	g.Set(42)
	if g.Value() != 42 {
		t.Fatalf("gauge %d", g.Value())
	}
}

func TestEWMA(t *testing.T) {
	e := NewEWMA(0.5)
	if got := e.Update(100); got != 100 {
		t.Fatalf("first sample %f", got)
	}
	if got := e.Update(200); got != 150 {
		t.Fatalf("second sample %f", got)
	}
	if got := e.Value(); got != 150 {
		t.Fatalf("value %f", got)
	}
	// Convergence: constant input converges to that input.
	for i := 0; i < 60; i++ {
		e.Update(1000)
	}
	if math.Abs(e.Value()-1000) > 1e-6 {
		t.Fatalf("did not converge: %f", e.Value())
	}
}

func TestEWMASuppressesOutliers(t *testing.T) {
	e := NewEWMA(0.9)
	for i := 0; i < 50; i++ {
		e.Update(1000)
	}
	e.Update(100000) // a single spike
	if e.Value() > 11000 {
		t.Fatalf("outlier leaked through: %f", e.Value())
	}
}

func TestEWMAPanicsOnBadAlpha(t *testing.T) {
	for _, a := range []float64{-0.1, 1.0, 2.0} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("alpha %g: expected panic", a)
				}
			}()
			NewEWMA(a)
		}()
	}
}

func TestHistogramMergeBucketAlignment(t *testing.T) {
	// Two histograms fed disjoint streams must merge into exactly the
	// histogram a single instance fed both streams would be: bucket-wise
	// identical, so counts, sums and every quantile line up.
	var a, b, ref Histogram
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 5000; i++ {
		v := int64(rng.Intn(1 << 20))
		a.Observe(v)
		ref.Observe(v)
	}
	for i := 0; i < 3000; i++ {
		v := int64(rng.Intn(1 << 30))
		b.Observe(v)
		ref.Observe(v)
	}
	a.Merge(&b)
	if a.Count() != ref.Count() {
		t.Fatalf("merged count %d, want %d", a.Count(), ref.Count())
	}
	if a.Sum() != ref.Sum() {
		t.Fatalf("merged sum %d, want %d", a.Sum(), ref.Sum())
	}
	if a.Max() != ref.Max() {
		t.Fatalf("merged max %d, want %d", a.Max(), ref.Max())
	}
	for i := range a.buckets {
		if got, want := a.buckets[i].Load(), ref.buckets[i].Load(); got != want {
			t.Fatalf("bucket %d: merged %d, want %d", i, got, want)
		}
	}
	for _, q := range []float64{0, 0.25, 0.5, 0.75, 0.95, 0.99, 1} {
		if got, want := a.Quantile(q), ref.Quantile(q); got != want {
			t.Fatalf("q=%g: merged %d, want %d", q, got, want)
		}
	}
}

func TestHistogramMergeEmptyAndNil(t *testing.T) {
	var a, empty Histogram
	a.Observe(10)
	a.Merge(&empty)
	a.Merge(nil)
	if a.Count() != 1 || a.Sum() != 10 || a.Max() != 10 {
		t.Fatalf("merge with empty changed data: %+v", a.Snapshot())
	}
	empty.Merge(&a)
	if empty.Count() != 1 || empty.Quantile(0.5) != a.Quantile(0.5) {
		t.Fatalf("merge into empty lost data: %+v", empty.Snapshot())
	}
}

func TestSnapshotMeanFromSamePair(t *testing.T) {
	var h Histogram
	for i := 1; i <= 100; i++ {
		h.Observe(int64(i))
	}
	s := h.Snapshot()
	if s.Count != 100 || s.Sum != 5050 {
		t.Fatalf("count=%d sum=%d", s.Count, s.Sum)
	}
	if want := float64(s.Sum) / float64(s.Count); s.Mean != want {
		t.Fatalf("mean %f not derived from count/sum pair (want %f)", s.Mean, want)
	}
}

func TestFamilyRegistration(t *testing.T) {
	f := NewFamily()
	c := f.Counter("dsps.tuples_emitted")
	c.Add(3)
	if f.Counter("dsps.tuples_emitted") != c {
		t.Fatal("Counter not idempotent")
	}
	g := f.Gauge("worker.0.queue_len")
	g.Set(7)
	h := f.Histogram("trace.stage.serialize_ns")
	h.Observe(100)

	var names []string
	f.EachCounter(func(n string, c *Counter) { names = append(names, "c:"+n) })
	f.EachGauge(func(n string, g *Gauge) { names = append(names, "g:"+n) })
	f.EachHistogram(func(n string, h *Histogram) { names = append(names, "h:"+n) })
	want := []string{"c:dsps.tuples_emitted", "g:worker.0.queue_len", "h:trace.stage.serialize_ns"}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("names %v, want %v", names, want)
	}
	if f.Counter("dsps.tuples_emitted").Value() != 3 {
		t.Fatal("counter value lost")
	}

	defer func() {
		if recover() == nil {
			t.Fatal("cross-kind registration must panic")
		}
	}()
	f.Gauge("dsps.tuples_emitted")
}

func TestFamilyConcurrent(t *testing.T) {
	f := NewFamily()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				f.Counter("shared").Inc()
				f.Histogram("hist").Observe(int64(j))
			}
		}()
	}
	wg.Wait()
	if f.Counter("shared").Value() != 8000 {
		t.Fatalf("shared counter %d", f.Counter("shared").Value())
	}
	if f.Histogram("hist").Count() != 8000 {
		t.Fatalf("hist count %d", f.Histogram("hist").Count())
	}
}
