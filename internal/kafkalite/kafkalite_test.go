package kafkalite

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"whale/internal/dsps"
	"whale/internal/transport"
	"whale/internal/tuple"
)

func TestTopicLifecycle(t *testing.T) {
	b := NewBroker()
	if err := b.CreateTopic("orders", 4, 0); err != nil {
		t.Fatal(err)
	}
	if err := b.CreateTopic("orders", 4, 0); err == nil {
		t.Fatal("duplicate topic accepted")
	}
	if err := b.CreateTopic("bad", 0, 0); err == nil {
		t.Fatal("0 partitions accepted")
	}
	if n, err := b.Partitions("orders"); err != nil || n != 4 {
		t.Fatalf("partitions %d %v", n, err)
	}
	if _, err := b.Partitions("ghost"); err == nil {
		t.Fatal("unknown topic accepted")
	}
}

func TestProduceFetchRoundTrip(t *testing.T) {
	b := NewBroker()
	b.CreateTopic("t", 2, 0)
	for i := 0; i < 10; i++ {
		if _, err := b.ProduceTo("t", i%2, nil, []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	recs, next, err := b.Fetch("t", 0, 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 5 || next != 5 {
		t.Fatalf("fetched %d next %d", len(recs), next)
	}
	for i, r := range recs {
		if r.Offset != int64(i) || string(r.Value) != fmt.Sprintf("v%d", i*2) {
			t.Fatalf("record %d: %+v", i, r)
		}
	}
	// Fetch at end: empty, same offset.
	recs, next, err = b.Fetch("t", 0, 5, 100)
	if err != nil || len(recs) != 0 || next != 5 {
		t.Fatalf("end fetch: %v %d %v", recs, next, err)
	}
	// Bounded fetch.
	recs, next, _ = b.Fetch("t", 1, 0, 2)
	if len(recs) != 2 || next != 2 {
		t.Fatalf("bounded fetch %d next %d", len(recs), next)
	}
	if end, _ := b.EndOffset("t", 0); end != 5 {
		t.Fatalf("end offset %d", end)
	}
}

func TestKeyedProduceIsDeterministic(t *testing.T) {
	b := NewBroker()
	b.CreateTopic("t", 8, 0)
	p1, _, err := b.Produce("t", []byte("driver-42"), []byte("a"))
	if err != nil {
		t.Fatal(err)
	}
	p2, _, _ := b.Produce("t", []byte("driver-42"), []byte("b"))
	if p1 != p2 {
		t.Fatalf("same key landed on partitions %d and %d", p1, p2)
	}
}

func TestRetentionTrims(t *testing.T) {
	b := NewBroker()
	b.CreateTopic("t", 1, 5)
	for i := 0; i < 12; i++ {
		b.ProduceTo("t", 0, nil, []byte{byte(i)})
	}
	// Offsets 0..6 trimmed; reading them errors.
	if _, _, err := b.Fetch("t", 0, 0, 10); err == nil {
		t.Fatal("trimmed offset readable")
	}
	recs, _, err := b.Fetch("t", 0, 7, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 5 || recs[0].Offset != 7 || recs[0].Value[0] != 7 {
		t.Fatalf("post-trim fetch: %+v", recs)
	}
}

func TestGroupAssignmentRange(t *testing.T) {
	b := NewBroker()
	b.CreateTopic("t", 8, 0)
	a1, g1, err := b.JoinGroup("g", "m1", "t")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a1, []int{0, 1, 2, 3, 4, 5, 6, 7}) {
		t.Fatalf("single member assignment %v", a1)
	}
	_, g2, _ := b.JoinGroup("g", "m2", "t")
	if g2 == g1 {
		t.Fatal("generation did not change on join")
	}
	// Rebalanced: m1 and m2 split the range.
	a1b, _, _ := b.Assignment("g", "m1", "t")
	a2, _, _ := b.Assignment("g", "m2", "t")
	if len(a1b)+len(a2) != 8 {
		t.Fatalf("assignments %v + %v", a1b, a2)
	}
	seen := map[int]bool{}
	for _, p := range append(append([]int{}, a1b...), a2...) {
		if seen[p] {
			t.Fatalf("partition %d assigned twice", p)
		}
		seen[p] = true
	}
	// Leave: m2 goes; m1 gets everything back.
	b.LeaveGroup("g", "m2")
	a1c, _, _ := b.Assignment("g", "m1", "t")
	if len(a1c) != 8 {
		t.Fatalf("after leave: %v", a1c)
	}
	if _, _, err := b.Assignment("g", "m2", "t"); err == nil {
		t.Fatal("departed member still assigned")
	}
}

func TestUnevenAssignment(t *testing.T) {
	b := NewBroker()
	b.CreateTopic("t", 7, 0)
	for _, m := range []string{"a", "b", "c"} {
		b.JoinGroup("g", m, "t")
	}
	total := 0
	for _, m := range []string{"a", "b", "c"} {
		parts, _, _ := b.Assignment("g", m, "t")
		if len(parts) < 2 || len(parts) > 3 {
			t.Fatalf("member %s got %v", m, parts)
		}
		total += len(parts)
	}
	if total != 7 {
		t.Fatalf("total %d", total)
	}
}

func TestCommitOffsets(t *testing.T) {
	b := NewBroker()
	b.CreateTopic("t", 2, 0)
	b.JoinGroup("g", "m", "t")
	if got := b.CommittedOffset("g", "t", 0); got != 0 {
		t.Fatalf("initial commit %d", got)
	}
	b.CommitOffset("g", "t", 0, 5)
	b.CommitOffset("g", "t", 0, 3) // regressions ignored
	if got := b.CommittedOffset("g", "t", 0); got != 5 {
		t.Fatalf("commit %d", got)
	}
	if err := b.CommitOffset("ghost", "t", 0, 1); err == nil {
		t.Fatal("unknown group accepted")
	}
}

func TestConcurrentProducersConsumers(t *testing.T) {
	b := NewBroker()
	b.CreateTopic("t", 4, 0)
	const perProducer = 500
	var wg sync.WaitGroup
	for p := 0; p < 4; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				b.ProduceTo("t", p, nil, []byte{byte(i)})
			}
		}(p)
	}
	wg.Wait()
	total := 0
	for p := 0; p < 4; p++ {
		recs, _, err := b.Fetch("t", p, 0, perProducer*2)
		if err != nil {
			t.Fatal(err)
		}
		total += len(recs)
		for i, r := range recs {
			if r.Offset != int64(i) {
				t.Fatalf("offset gap at %d", i)
			}
		}
	}
	if total != 4*perProducer {
		t.Fatalf("total %d", total)
	}
}

// flakyBolt fails the first delivery of every record, forcing redelivery.
type flakyBolt struct {
	mu   sync.Mutex
	seen map[int64]int
	done map[int64]bool
}

func (f *flakyBolt) Prepare(*dsps.TaskContext) {}
func (f *flakyBolt) Execute(tp *tuple.Tuple, c *dsps.Collector) {
	f.mu.Lock()
	defer f.mu.Unlock()
	seq := tp.Int(0)
	f.seen[seq]++
	if f.seen[seq] == 1 {
		c.Fail()
		return
	}
	f.done[seq] = true
}
func (f *flakyBolt) Cleanup() {}

func TestSpoutEndToEndAtLeastOnce(t *testing.T) {
	const records = 120
	b := NewBroker()
	b.CreateTopic("orders", 3, 0)
	for i := 0; i < records; i++ {
		if _, _, err := b.Produce("orders", []byte(fmt.Sprintf("k%d", i)), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	flaky := &flakyBolt{seen: map[int64]int{}, done: map[int64]bool{}}
	tb := dsps.NewTopologyBuilder()
	tb.Spout("kafka", func() dsps.Spout {
		return &Spout{
			Broker: b, Topic: "orders", Group: "g1", Reliable: true,
			Decode: func(r Record) []tuple.Value {
				// Global sequence: partition*1000 + offset.
				return []tuple.Value{int64(1000)*int64(r.Offset) + int64(r.Value[0]), string(r.Key)}
			},
		}
	}, 2)
	tb.Bolt("sink", func() dsps.Bolt { return flaky }, 2).Shuffle("kafka")
	topo, err := tb.Build()
	if err != nil {
		t.Fatal(err)
	}
	eng, err := dsps.Start(topo, dsps.Config{
		Workers: 2, Network: transport.NewInprocNetwork(0),
		AckEnabled: true, AckTimeout: 2 * time.Second, MaxSpoutPending: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Every record must eventually be processed successfully despite the
	// first-attempt failures (at-least-once via Fail -> requeue), and its
	// offset committed: a fresh consumer in the same group starts at the
	// end. The commit follows the last ack, which follows the bolt's
	// Execute, so wait for both.
	committed := func() (n int64) {
		for p := 0; p < 3; p++ {
			n += b.CommittedOffset("g1", "orders", p)
		}
		return n
	}
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		flaky.mu.Lock()
		n := len(flaky.done)
		flaky.mu.Unlock()
		if n >= records && committed() >= records {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	eng.StopSpouts()
	eng.Stop()
	flaky.mu.Lock()
	defer flaky.mu.Unlock()
	if len(flaky.done) != records {
		t.Fatalf("processed %d of %d records", len(flaky.done), records)
	}
	for seq, n := range flaky.seen {
		if n < 2 {
			t.Fatalf("record %d was not redelivered (seen %d)", seq, n)
		}
	}
	if committed := committed(); committed != records {
		t.Fatalf("committed %d of %d offsets", committed, records)
	}
}

func TestSpoutExitAtEnd(t *testing.T) {
	b := NewBroker()
	b.CreateTopic("t", 1, 0)
	for i := 0; i < 20; i++ {
		b.ProduceTo("t", 0, nil, []byte{byte(i)})
	}
	var got int64
	var mu sync.Mutex
	tb := dsps.NewTopologyBuilder()
	tb.Spout("kafka", func() dsps.Spout {
		return &Spout{
			Broker: b, Topic: "t", Group: "g", ExitAtEnd: true,
			Decode: func(r Record) []tuple.Value { return []tuple.Value{int64(r.Value[0])} },
		}
	}, 1)
	tb.Bolt("sink", func() dsps.Bolt {
		return &countBolt{fn: func() { mu.Lock(); got++; mu.Unlock() }}
	}, 1).Shuffle("kafka")
	topo, _ := tb.Build()
	eng, err := dsps.Start(topo, dsps.Config{Workers: 1, Network: transport.NewInprocNetwork(0)})
	if err != nil {
		t.Fatal(err)
	}
	eng.WaitSpouts()
	eng.Drain(10 * time.Second)
	eng.Stop()
	mu.Lock()
	defer mu.Unlock()
	if got != 20 {
		t.Fatalf("delivered %d of 20", got)
	}
}

type countBolt struct{ fn func() }

func (c *countBolt) Prepare(*dsps.TaskContext)             {}
func (c *countBolt) Execute(*tuple.Tuple, *dsps.Collector) { c.fn() }
func (c *countBolt) Cleanup()                              {}
