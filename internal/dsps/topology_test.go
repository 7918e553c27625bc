package dsps

import (
	"math"
	"testing"

	"whale/internal/transport"
	"whale/internal/tuple"
)

type nopSpout struct{}

func (nopSpout) Open(*TaskContext)    {}
func (nopSpout) Next(*Collector) bool { return false }
func (nopSpout) Close()               {}

type nopBolt struct{}

func (nopBolt) Prepare(*TaskContext)             {}
func (nopBolt) Execute(*tuple.Tuple, *Collector) {}
func (nopBolt) Cleanup()                         {}

func mkSpout() Spout { return nopSpout{} }
func mkBolt() Bolt   { return nopBolt{} }

func TestBuildValidTopology(t *testing.T) {
	b := NewTopologyBuilder()
	b.Spout("src", mkSpout, 2)
	b.Bolt("mid", mkBolt, 4).Shuffle("src")
	b.Bolt("sink", mkBolt, 3).All("mid").Fields("src", 1)
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if len(topo.Order) != 3 {
		t.Fatalf("order %v", topo.Order)
	}
	subs := topo.Subscribers("mid", "mid")
	if len(subs) != 1 || subs[0].Op.ID != "sink" || subs[0].Sub.Type != AllGrouping {
		t.Fatalf("subscribers %v", subs)
	}
	if got := topo.Subscribers("src", "src"); len(got) != 2 {
		t.Fatalf("src subscribers %d", len(got))
	}
}

func TestBuildErrors(t *testing.T) {
	cases := []struct {
		name  string
		build func() *TopologyBuilder
	}{
		{"empty id", func() *TopologyBuilder {
			b := NewTopologyBuilder()
			b.Spout("", mkSpout, 1)
			return b
		}},
		{"duplicate", func() *TopologyBuilder {
			b := NewTopologyBuilder()
			b.Spout("x", mkSpout, 1)
			b.Bolt("x", mkBolt, 1).Shuffle("x")
			return b
		}},
		{"zero parallelism", func() *TopologyBuilder {
			b := NewTopologyBuilder()
			b.Spout("x", mkSpout, 0)
			return b
		}},
		{"bolt without input", func() *TopologyBuilder {
			b := NewTopologyBuilder()
			b.Spout("x", mkSpout, 1)
			b.Bolt("y", mkBolt, 1)
			return b
		}},
		{"unknown source", func() *TopologyBuilder {
			b := NewTopologyBuilder()
			b.Spout("x", mkSpout, 1)
			b.Bolt("y", mkBolt, 1).Shuffle("ghost")
			return b
		}},
		{"cycle", func() *TopologyBuilder {
			b := NewTopologyBuilder()
			b.Spout("s", mkSpout, 1)
			b.Bolt("a", mkBolt, 1).Shuffle("s").Shuffle("b")
			b.Bolt("b", mkBolt, 1).Shuffle("a")
			return b
		}},
	}
	for _, c := range cases {
		if _, err := c.build().Build(); err == nil {
			t.Fatalf("%s: expected error", c.name)
		}
	}
}

func TestGroupingString(t *testing.T) {
	for g, want := range map[GroupingType]string{
		ShuffleGrouping: "shuffle", FieldsGrouping: "fields",
		AllGrouping: "all", GlobalGrouping: "global",
	} {
		if g.String() != want {
			t.Fatalf("%v != %s", g, want)
		}
	}
}

func TestAssignRoundRobin(t *testing.T) {
	b := NewTopologyBuilder()
	b.Spout("src", mkSpout, 2)
	b.Bolt("work", mkBolt, 8).All("src")
	topo, _ := b.Build()
	a, err := Assign(topo, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Tasks) != 10 {
		t.Fatalf("%d tasks", len(a.Tasks))
	}
	// Dense ids in declaration order: src = 0..1, work = 2..9.
	if got := a.TasksOf["src"]; len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("src tasks %v", got)
	}
	// Round-robin across 4 workers.
	for tid, w := range a.WorkerOf {
		if w != int32(tid%4) {
			t.Fatalf("task %d on worker %d", tid, w)
		}
	}
	// Each worker hosts exactly 2 'work' tasks (8 tasks / 4 workers).
	for w := int32(0); w < 4; w++ {
		if got := a.TasksOnWorker("work", w); len(got) != 2 {
			t.Fatalf("worker %d hosts %v", w, got)
		}
	}
	if got := a.WorkersOf("work"); len(got) != 4 {
		t.Fatalf("WorkersOf %v", got)
	}
	if _, err := Assign(topo, 0); err == nil {
		t.Fatal("0 workers accepted")
	}
}

func TestRouterGroupings(t *testing.T) {
	b := NewTopologyBuilder()
	b.Spout("src", mkSpout, 1)
	b.Bolt("sh", mkBolt, 4).Shuffle("src")
	b.Bolt("fi", mkBolt, 4).Fields("src", 0)
	b.Bolt("al", mkBolt, 4).All("src")
	b.Bolt("gl", mkBolt, 4).Global("src")
	topo, _ := b.Build()
	a, _ := Assign(topo, 2)
	rt := newRouter(topo, a, "src", 0)

	tp := &tuple.Tuple{Stream: "src", Values: []tuple.Value{"key-a"}}
	dests, err := rt.destinations("src", tp)
	if err != nil {
		t.Fatal(err)
	}
	if len(dests) != 4 {
		t.Fatalf("%d edges", len(dests))
	}
	byOp := map[string]destination{}
	for _, d := range dests {
		byOp[d.dstOp] = d
	}
	if len(byOp["sh"].tasks) != 1 {
		t.Fatal("shuffle should pick one task")
	}
	if len(byOp["fi"].tasks) != 1 {
		t.Fatal("fields should pick one task")
	}
	if !byOp["al"].all || len(byOp["al"].tasks) != 4 {
		t.Fatal("all should cover all tasks")
	}
	if len(byOp["gl"].tasks) != 1 || byOp["gl"].tasks[0] != a.TasksOf["gl"][0] {
		t.Fatal("global should pick the first task")
	}

	// Shuffle round-robins.
	first := byOp["sh"].tasks[0]
	dests2, _ := rt.destinations("src", tp)
	for _, d := range dests2 {
		if d.dstOp == "sh" && d.tasks[0] == first {
			t.Fatal("shuffle did not advance")
		}
	}

	// Fields grouping is deterministic per key.
	pick := func(key string) int32 {
		tp := &tuple.Tuple{Stream: "src", Values: []tuple.Value{key}}
		ds, _ := rt.destinations("src", tp)
		for _, d := range ds {
			if d.dstOp == "fi" {
				return d.tasks[0]
			}
		}
		return -1
	}
	if pick("driver-1") != pick("driver-1") {
		t.Fatal("fields grouping not deterministic")
	}

	// Fields grouping on a missing field errors.
	bad := &tuple.Tuple{Stream: "src", Values: nil}
	if _, err := rt.destinations("src", bad); err == nil {
		t.Fatal("missing field accepted")
	}

	// A stream nothing subscribes to routes nowhere.
	if d, err := rt.destinations("nosuch", tp); err != nil || len(d) != 0 {
		t.Fatalf("phantom subscribers: %v, %v", d, err)
	}
}

func TestHashValueCoversTypes(t *testing.T) {
	vals := []tuple.Value{int64(7), float64(3.5), "str", []byte{1, 2}, true, false}
	seen := map[uint64]bool{}
	for _, v := range vals {
		seen[tuple.HashValue(v)] = true
	}
	if len(seen) < len(vals)-1 {
		t.Fatalf("suspicious hash collisions: %d distinct of %d", len(seen), len(vals))
	}
	if tuple.HashValue("x") != tuple.HashValue("x") {
		t.Fatal("hash not deterministic")
	}
}

// TestSlotOfStable pins key-grouping slots to the values hash/fnv's FNV-1a
// gave them before the hash was inlined: checkpoint shards and rescale
// ownership are keyed by slot, so a slot must never move.
func TestSlotOfStable(t *testing.T) {
	for _, c := range []struct {
		v    tuple.Value
		slot int32
		hash uint64
	}{
		{int64(0), 5, 0xa8c7f832281a39c5},
		{int64(1), 36, 0x89cd31291d2aefa4},
		{int64(-1), 61, 0x8cf51a8bfca3883d},
		{int64(42), 47, 0xff3add6b3789daef},
		{int64(1 << 40), 26, 0xa01e7d3223323b1a},
		{int64(math.MinInt64), 5, 0xa8c7783228196045},
		{float64(0), 5, 0xa8c7f832281a39c5},
		{math.Copysign(0, -1), 5, 0xa8c7783228196045},
		{3.25, 15, 0xa8b3543228087a0f},
		{math.Inf(1), 56, 0xaab1293229b9b0f8},
		{"", 37, 0xcbf29ce484222325},
		{"a", 12, 0xaf63dc4c8601ec8c},
		{"key-a", 22, 0x71132af295f22d16},
		{"driver-001", 53, 0x6707bba9bf639375},
		{"AAPL", 11, 0x89106b8b9f086ccb},
		{"drv-001234", 34, 0x99532b4305d13be2},
		{[]byte{}, 37, 0xcbf29ce484222325},
		{[]byte{1, 2, 3}, 43, 0xd0aa6218672cf5ab},
		{true, 44, 0xaf63bc4c8601b62c},
		{false, 31, 0xaf63bd4c8601b7df},
	} {
		if got := SlotOf(c.v); got != c.slot {
			t.Errorf("SlotOf(%#v) = %d, want %d", c.v, got, c.slot)
		}
		if got := tuple.HashValue(c.v); got != c.hash {
			t.Errorf("HashValue(%#v) = %#x, want %#x", c.v, got, c.hash)
		}
		// A received tuple carrying the same key lands in the same slot.
		raw, err := tuple.AppendTuple(nil, &tuple.Tuple{Stream: "s", Values: []tuple.Value{int64(9), c.v}})
		if err != nil {
			t.Fatal(err)
		}
		dec, _, err := tuple.DecodeTuple(raw)
		if err != nil {
			t.Fatal(err)
		}
		if got := int32(dec.HashField(1) % NumSlots); got != c.slot {
			t.Errorf("decoded %#v: slot %d, want %d", c.v, got, c.slot)
		}
	}
}

// TestFieldsGroupingDecodedMatchesConstructed: the router sends a decoded
// tuple and a constructed tuple with the same key to the same task.
func TestFieldsGroupingDecodedMatchesConstructed(t *testing.T) {
	b := NewTopologyBuilder()
	b.Spout("src", mkSpout, 1)
	b.Bolt("fi", mkBolt, 7).Fields("src", 1)
	topo, _ := b.Build()
	a, _ := Assign(topo, 2)
	rt := newRouter(topo, a, "src", 0)
	pick := func(tp *tuple.Tuple) int32 {
		ds, err := rt.destinations("src", tp)
		if err != nil || len(ds) != 1 {
			t.Fatalf("destinations: %v %v", ds, err)
		}
		return ds[0].tasks[0]
	}
	for _, key := range []tuple.Value{"driver-7", int64(123456), 2.5, []byte("k"), true} {
		built := &tuple.Tuple{Stream: "src", Values: []tuple.Value{int64(1), key}}
		raw, err := tuple.AppendTuple(nil, built)
		if err != nil {
			t.Fatal(err)
		}
		dec, _, err := tuple.DecodeTuple(raw)
		if err != nil {
			t.Fatal(err)
		}
		if want, got := pick(built), pick(dec); got != want {
			t.Errorf("key %#v: decoded tuple routed to %d, constructed to %d", key, got, want)
		}
	}
}

// TestRouteFieldsGroupedZeroAlloc: routing a tuple over fields-grouped
// edges (a string key, an int key) to local tasks allocates nothing — no destinations slice, no hash
// state, no string conversion — for a constructed and a decoded tuple.
func TestRouteFieldsGroupedZeroAlloc(t *testing.T) {
	b := NewTopologyBuilder()
	b.Spout("src", mkSpout, 1)
	b.Bolt("fi", mkBolt, 4).Fields("src", 0)
	b.Bolt("fi2", mkBolt, 3).Fields("src", 1)
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	eng, err := Start(topo, Config{Workers: 1, Network: transport.NewInprocNetwork(0)})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Stop()
	eng.WaitSpouts() // the spout's goroutine is done: its router is ours now
	src := eng.workers[0].execMap()[eng.assign.TasksOf["src"][0]]
	built := &tuple.Tuple{Stream: "src", Values: []tuple.Value{"driver-001234", int64(1 << 40)}}
	raw, err := tuple.AppendTuple(nil, built)
	if err != nil {
		t.Fatal(err)
	}
	dec, _, err := tuple.DecodeTuple(raw)
	if err != nil {
		t.Fatal(err)
	}
	for name, tp := range map[string]*tuple.Tuple{"constructed": built, "decoded": dec} {
		src.route(tp, false) // warm the router's scratch
		if allocs := testing.AllocsPerRun(500, func() { src.route(tp, false) }); allocs != 0 {
			t.Errorf("route of a %s tuple allocates %.1f per emit, want 0", name, allocs)
		}
	}
}

func TestLocalOrShuffleGrouping(t *testing.T) {
	b := NewTopologyBuilder()
	b.Spout("src", mkSpout, 1)
	b.Bolt("near", mkBolt, 4).LocalOrShuffle("src")
	topo, _ := b.Build()
	a, _ := Assign(topo, 2)
	// Emitter on worker 0: only worker-0 tasks of "near" are eligible.
	rt := newRouter(topo, a, "src", 0)
	local := map[int32]bool{}
	for _, tid := range a.TasksOnWorker("near", 0) {
		local[tid] = true
	}
	if len(local) == 0 {
		t.Fatal("test setup: no local tasks")
	}
	tp := &tuple.Tuple{Stream: "src", Values: []tuple.Value{"k"}}
	picks := map[int32]int{}
	for i := 0; i < 40; i++ {
		ds, err := rt.destinations("src", tp)
		if err != nil {
			t.Fatal(err)
		}
		picks[ds[0].tasks[0]]++
	}
	for tid := range picks {
		if !local[tid] {
			t.Fatalf("local-or-shuffle picked remote task %d", tid)
		}
	}
	if len(picks) != len(local) {
		t.Fatalf("round-robin over %d local tasks hit only %d", len(local), len(picks))
	}
	// With no local tasks it falls back to shuffle over everything: give
	// the router a worker hosting none of "near"'s tasks.
	b2 := NewTopologyBuilder()
	b2.Spout("src", mkSpout, 1)
	b2.Bolt("near", mkBolt, 1).LocalOrShuffle("src")
	topo2, _ := b2.Build()
	a2, _ := Assign(topo2, 2) // task 0 (spout) on w0, task 1 (near) on w1
	rt2 := newRouter(topo2, a2, "src", 0)
	ds, err := rt2.destinations("src", tp)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds[0].tasks) != 1 || ds[0].tasks[0] != a2.TasksOf["near"][0] {
		t.Fatalf("fallback pick %v", ds[0].tasks)
	}
	if LocalOrShuffleGrouping.String() != "local-or-shuffle" {
		t.Fatal("string")
	}
}
