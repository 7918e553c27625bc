package main

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"whale/internal/core"
	"whale/internal/dsps"
	"whale/internal/tuple"
	"whale/internal/workload"
)

const (
	rideWorkers  = 4
	rideMatchers = 12
	rideAggs     = 2
	rideDrivers  = 3000
	// The quiesced preload: one location per driver, drained, then this many
	// requests whose chosen driver must equal the reference's.
	ridePreRequests = 100
	ridePreload     = rideDrivers + ridePreRequests
	// After the preload the source interleaves ten locations with one request.
	rideMix      = 11
	rideLocPool  = 1 << 16
	rideReqPool  = 1 << 13
	rideRefCap   = 44000 // source tuples the timed reference stops after (4000 requests)
	rideRate     = 11000 // paced rate, tuples/s (1000 requests/s)
	rideLocSeqAt = 3     // field of a location tuple that carries seq
)

// ride is the ride-hailing join: locations are fields-grouped to the one
// matcher that owns the driver, requests are all-grouped to every matcher,
// each matcher scans the drivers it owns (about 250 Haversines a request)
// and two aggregators pick the closest of the twelve candidates. A single
// source emits both streams so the mix cannot drift.
type ride struct {
	preLocs [][3]tuple.Value // driver id, lat, lon: one per driver
	locs    [][3]tuple.Value // workload.RideGen location updates
	reqs    [][2]float64     // workload.RideGen request positions

	refChoice map[int64]string // preload request seq -> reference's driver
}

func newRide(seed int64) *ride {
	w := &ride{}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < rideDrivers; i++ {
		w.preLocs = append(w.preLocs, [3]tuple.Value{
			workload.DriverID(i),
			workload.LatMin + rng.Float64()*(workload.LatMax-workload.LatMin),
			workload.LonMin + rng.Float64()*(workload.LonMax-workload.LonMin),
		})
	}
	gen := workload.NewRideGen(workload.RideConfig{Drivers: rideDrivers, Seed: seed})
	for i := 0; i < rideLocPool; i++ {
		id, lat, lon := gen.NextLocation()
		w.locs = append(w.locs, [3]tuple.Value{id, lat, lon})
	}
	for i := 0; i < rideReqPool; i++ {
		_, lat, lon := gen.NextRequest()
		w.reqs = append(w.reqs, [2]float64{lat, lon})
	}
	return w
}

func (w *ride) name() string        { return "ride_join" }
func (w *ride) system() core.System { return core.Whale }
func (w *ride) pacedRate() int      { return rideRate }

func (w *ride) chain(rec *recorder) []boundary {
	return append(genCuts(rec), boundary{"dsps.transit_us_mean", rec.first}, boundary{"multicast.spread_us_mean", rec.lastStart},
		boundary{"dsps.operator_us_mean", rec.lastEnd}, boundary{"dsps.next_hop_us_mean", rec.done})
}

// isRequest reports whether source tuple seq is a request.
func isRequest(seq int64) bool {
	if seq < ridePreload {
		return seq >= rideDrivers
	}
	return (seq-ridePreload)%rideMix == rideMix-1
}

// tuple returns source tuple seq's stream and fields. A request's id is
// its seq; a location carries its seq as a fourth field the matcher ignores.
func (w *ride) tuple(seq int64) (string, []tuple.Value) {
	switch {
	case seq < rideDrivers:
		p := &w.preLocs[seq]
		return workload.StreamLocations, []tuple.Value{p[0], p[1], p[2], seq}
	case seq < ridePreload:
		p := &w.reqs[seq-rideDrivers]
		return workload.StreamRequests, []tuple.Value{seq, p[0], p[1]}
	}
	j := seq - ridePreload
	if j%rideMix == rideMix-1 {
		p := &w.reqs[(ridePreRequests+j/rideMix)%rideReqPool]
		return workload.StreamRequests, []tuple.Value{seq, p[0], p[1]}
	}
	p := &w.locs[(j-j/rideMix)%rideLocPool]
	return workload.StreamLocations, []tuple.Value{p[0], p[1], p[2], seq}
}

func (w *ride) sample() (*tuple.Tuple, int) {
	stream, vals := w.tuple(ridePreload + rideMix - 1)
	return &tuple.Tuple{Stream: stream, Values: vals, ID: 1 << 20, RootEmitNS: 1}, rideMatchers / rideWorkers
}

// rideMatcher wraps workload.MatcherBolt to observe when tuples reach it.
type rideMatcher struct {
	workload.MatcherBolt
	rec *recorder
}

func (m *rideMatcher) Execute(tp *tuple.Tuple, c *dsps.Collector) {
	if tp.Stream == workload.StreamLocations {
		m.MatcherBolt.Execute(tp, c)
		seq := tp.Int(rideLocSeqAt)
		m.rec.cnt[seq].Add(1)
		m.rec.markDone(seq)
		return
	}
	seq := tp.Int(0)
	k := m.rec.cnt[seq].Add(1)
	if !m.rec.traced {
		m.MatcherBolt.Execute(tp, c)
		return
	}
	if k == 1 {
		m.rec.first[seq] = m.rec.now()
	}
	if k == rideMatchers {
		m.rec.lastStart[seq] = m.rec.now()
	}
	m.MatcherBolt.Execute(tp, c)
	if k == rideMatchers {
		m.rec.lastEnd[seq] = m.rec.now()
	}
}

// rideAgg wraps the aggregator to observe when a request is finalised, and
// keeps its own pick for the preload requests so it can be compared with
// the reference (the wrapped bolt only counts matched/unmatched).
type rideAgg struct {
	dsps.Bolt
	rec     *recorder
	reports []atomic.Int32 // candidate reports seen per request seq
	choice  map[int64]rideChoice
}

type rideChoice struct {
	driver string
	dist   float64
}

func (a *rideAgg) Execute(tp *tuple.Tuple, c *dsps.Collector) {
	a.Bolt.Execute(tp, c)
	seq := tp.Int(0)
	if seq < ridePreload {
		best, ok := a.choice[seq]
		if id, d := tp.StringAt(1), tp.Float(2); id != "" && (!ok || best.driver == "" || d < best.dist) {
			best = rideChoice{id, d}
		}
		a.choice[seq] = best
	}
	if a.reports[seq].Add(1) == rideMatchers {
		a.rec.markDone(seq)
	}
}

func (w *ride) launch(rec *recorder, traceEvery int64) (*instance, error) {
	var mu sync.Mutex
	var aggs []*rideAgg
	var matched, unmatched atomic.Int64
	reports := make([]atomic.Int32, rec.capacity())
	src := &genSpout{}
	src.gen = newGenerator(rec, func(seq int64) {
		stream, vals := w.tuple(seq)
		src.c.EmitTo(stream, vals...)
	})

	b := dsps.NewTopologyBuilder()
	b.Spout("source", func() dsps.Spout { return src }, 1)
	b.Bolt("matcher", func() dsps.Bolt { return &rideMatcher{rec: rec} }, rideMatchers).
		FieldsStream("source", workload.StreamLocations, 0).
		AllStream("source", workload.StreamRequests)
	inner := workload.NewAggregatorFactory(rideMatchers, &matched, &unmatched)
	b.Bolt("aggregator", func() dsps.Bolt {
		a := &rideAgg{Bolt: inner(), rec: rec, reports: reports, choice: map[int64]rideChoice{}}
		mu.Lock()
		aggs = append(aggs, a)
		mu.Unlock()
		return a
	}, rideAggs).FieldsStream("matcher", workload.StreamMatches, 0)
	topo, err := b.Build()
	if err != nil {
		return nil, err
	}
	opt := core.Options{Workers: rideWorkers, TraceSampleEvery: traceEvery}
	eng, err := w.system().Launch(topo, opt)
	if err != nil {
		return nil, err
	}
	in := &instance{eng: eng, gen: src.gen}
	in.inLatency = func(seq int64) bool { return seq >= ridePreload && isRequest(seq) }
	// The preload is quiesced: every driver's location is in place before
	// the first request, so the chosen driver is deterministic.
	in.preload = func() error {
		for _, until := range []int64{rideDrivers, ridePreload} {
			in.gen.set(phase{kind: phaseQuota, until: until})
			if !rec.waitCompleted(until, 20*time.Second) || !eng.Drain(5*time.Second) {
				return fmt.Errorf("%d of %d preload tuples processed", rec.completed.Load(), until)
			}
		}
		return nil
	}
	in.verify = func(n int64) (int64, []string) {
		var failed, requests int64
		var detail []string
		for seq := int64(0); seq < n; seq++ {
			want, got2 := int32(1), int32(0)
			if isRequest(seq) {
				requests++
				want, got2 = rideMatchers, rideMatchers
			}
			if c, r := rec.cnt[seq].Load(), reports[seq].Load(); c != want || r != got2 || rec.done[seq] == 0 {
				failed++
				detail = note(detail, "seq %d: %d matcher executions (want %d), %d candidate reports (want %d)", seq, c, want, r, got2)
			}
		}
		if got := matched.Load() + unmatched.Load(); got != requests {
			failed += abs64(got - requests)
			detail = note(detail, "aggregators finalised %d requests, want %d", got, requests)
		}
		for seq, want := range w.refChoice {
			var got rideChoice
			for _, a := range aggs {
				if c, ok := a.choice[seq]; ok {
					got = c
				}
			}
			if got.driver != want {
				failed++
				detail = note(detail, "preload request %d: chose driver %q, reference chose %q", seq, got.driver, want)
			}
		}
		return failed, detail
	}
	return in, nil
}

// reference runs the join single-threaded: one matcher owning every driver,
// so its best candidate is the aggregators' choice. It records the choice
// for the preload requests and stops at rideRefCap tuples — a request costs
// 3000 Haversines here, and only the preload's outcome is deterministic.
func (w *ride) reference(n int64) int64 {
	if n > rideRefCap {
		n = rideRefCap
	}
	w.refChoice = map[int64]string{}
	m := &workload.MatcherBolt{}
	m.Prepare(nil)
	var cur int64
	col := dsps.NewTestCollector(func(_ string, v []tuple.Value) {
		if cur < ridePreload {
			w.refChoice[cur] = v[1].(string)
		}
	})
	for cur = 0; cur < n; cur++ {
		stream, vals := w.tuple(cur)
		m.Execute(&tuple.Tuple{Stream: stream, Values: vals}, col)
	}
	return n
}
