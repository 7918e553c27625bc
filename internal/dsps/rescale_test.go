package dsps

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"whale/internal/chaos"
	"whale/internal/obs"
	"whale/internal/snapshot"
	"whale/internal/transport"
	"whale/internal/tuple"
)

// foreverSpout emits an unbounded sequence; live-rescale tests need sources
// that outlast every membership change.
type foreverSpout struct{ seq int64 }

func (s *foreverSpout) Open(*TaskContext) {}
func (s *foreverSpout) Next(c *Collector) bool {
	s.seq++
	c.Emit(s.seq, "k")
	return true
}
func (s *foreverSpout) Close() {}

// waitEventCount polls the engine's event log until at least n events of
// kind have appeared.
func waitEventCount(t *testing.T, e *Engine, kind string, n int, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if countEvents(e, kind) >= n {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %d %q events (have %d)", n, kind, countEvents(e, kind))
}

func countEvents(e *Engine, kind string) int {
	n := 0
	for _, ev := range e.obs.Events.Recent(0) {
		if ev.Kind == kind {
			n++
		}
	}
	return n
}

// TestRescaledAssignment: task ids stay stable across grow and shrink, new
// ids append at the global tail, shrink tombstones instead of compacting,
// and the receiver is never mutated.
func TestRescaledAssignment(t *testing.T) {
	b := NewTopologyBuilder()
	b.Spout("src", func() Spout { return &countSpout{} }, 1)
	b.Bolt("fan", func() Bolt { return forwardBolt{} }, 2).Shuffle("src")
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	a, err := Assign(topo, 2)
	if err != nil {
		t.Fatal(err)
	}

	grown, err := a.Rescaled("fan", 4, []int32{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := grown.TasksOf["fan"]; len(got) != 4 || got[0] != 1 || got[1] != 2 || got[2] != 3 || got[3] != 4 {
		t.Fatalf("grown TasksOf[fan] = %v", got)
	}
	if grown.WorkerOf[3] != 0 || grown.WorkerOf[4] != 1 {
		t.Fatalf("new task placement %v", grown.WorkerOf)
	}
	for i, tid := range grown.TasksOf["fan"] {
		tc := grown.Tasks[tid]
		if tc.TaskIndex != i || tc.Parallelism != 4 {
			t.Fatalf("task %d context %+v, want index %d width 4", tid, tc, i)
		}
	}
	// The receiver is untouched: the live view swaps atomically elsewhere.
	if len(a.TasksOf["fan"]) != 2 || a.Tasks[1].Parallelism != 2 || len(a.WorkerOf) != 3 {
		t.Fatalf("receiver mutated: %+v", a)
	}

	shrunk, err := a.Rescaled("fan", 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := shrunk.TasksOf["fan"]; len(got) != 1 || got[0] != 1 {
		t.Fatalf("shrunk TasksOf[fan] = %v", got)
	}
	if !shrunk.retired(2) || shrunk.WorkerOf[2] != retiredWorker {
		t.Fatalf("task 2 not tombstoned: WorkerOf=%v", shrunk.WorkerOf)
	}
	if shrunk.Tasks[1].TaskIndex != 0 || shrunk.Tasks[1].Parallelism != 1 {
		t.Fatalf("survivor context %+v", shrunk.Tasks[1])
	}
	for _, tid := range shrunk.LocalTasks(0) {
		if tid == 2 {
			t.Fatal("retired task still listed as local")
		}
	}

	for _, bad := range []struct {
		op      string
		par     int
		placeOn []int32
	}{
		{"nope", 2, nil},       // unknown operator
		{"fan", 2, nil},        // unchanged parallelism
		{"fan", 0, nil},        // nonsense width
		{"fan", 4, []int32{0}}, // wrong placement count
	} {
		if _, err := a.Rescaled(bad.op, bad.par, bad.placeOn); err == nil {
			t.Fatalf("Rescaled(%q, %d, %v) accepted", bad.op, bad.par, bad.placeOn)
		}
	}
}

func membershipEngine(t *testing.T) *Engine {
	t.Helper()
	b := NewTopologyBuilder()
	b.Spout("src", func() Spout { return &countSpout{n: 0, keys: 1} }, 1)
	b.Bolt("sink", func() Bolt { return forwardBolt{} }, 1).Shuffle("src")
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	eng, err := Start(topo, Config{
		Workers: 2, MaxWorkers: 4,
		Network:           transport.NewInprocNetwork(0),
		HeartbeatInterval: 2 * time.Millisecond,
		SuspectAfter:      2 * time.Second, // never suspect under test load
		ConfirmAfter:      5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// TestJoinLeaveRejoin drives the graceful membership lifecycle: dormant
// workers admit through the CtrlJoin/CtrlWelcome handshake, duplicates and
// invalid ids are rejected, a task-hosting worker cannot leave, a departed
// worker can rejoin, and a confirmed-dead worker never can.
func TestJoinLeaveRejoin(t *testing.T) {
	eng := membershipEngine(t)
	defer eng.Stop()

	if err := eng.JoinWorker(2); err != nil {
		t.Fatal(err)
	}
	if !eng.joinedWorker(2) {
		t.Fatal("worker 2 not joined after JoinWorker")
	}
	waitEventCount(t, eng, obs.EventWorkerJoined, 1, 5*time.Second)

	if err := eng.JoinWorker(2); err == nil {
		t.Fatal("duplicate join accepted")
	}
	if err := eng.JoinWorker(99); err == nil {
		t.Fatal("out-of-range join accepted")
	}
	if err := eng.JoinWorker(-1); err == nil {
		t.Fatal("negative join accepted")
	}

	rep := eng.Membership()
	if rep.MaxWorkers != 4 || len(rep.Workers) != 4 {
		t.Fatalf("report sizing %+v", rep)
	}
	if rep.Workers[2].State != "alive" || !rep.Workers[2].Joined {
		t.Fatalf("joined worker state %+v", rep.Workers[2])
	}
	if rep.Workers[3].State != "dormant" || rep.Workers[3].Joined {
		t.Fatalf("dormant worker state %+v", rep.Workers[3])
	}

	if err := eng.LeaveWorker(3); err == nil {
		t.Fatal("unjoined worker allowed to leave")
	}
	if err := eng.LeaveWorker(0); err == nil {
		t.Fatal("monitor/coordinator worker allowed to leave")
	}
	if err := eng.LeaveWorker(1); err == nil {
		t.Fatal("task-hosting worker allowed to leave")
	}

	if err := eng.LeaveWorker(2); err != nil {
		t.Fatal(err)
	}
	if eng.joinedWorker(2) {
		t.Fatal("worker 2 still joined after leave")
	}
	waitEventCount(t, eng, obs.EventWorkerLeft, 1, 5*time.Second)
	if err := eng.LeaveWorker(2); err == nil {
		t.Fatal("double leave accepted")
	}

	// Leave is not terminal: the same worker rejoins cleanly.
	if err := eng.JoinWorker(2); err != nil {
		t.Fatalf("rejoin: %v", err)
	}

	// Death is: a fenced id can never rejoin.
	eng.dead[3].Store(true)
	if err := eng.JoinWorker(3); err == nil {
		t.Fatal("dead worker allowed to join")
	}
}

// TestMembershipReportJSON: the report serves /debug/membership and the
// whaled -membership dump; it must survive a JSON round trip losslessly
// enough for external tooling to parse worker states and placements.
func TestMembershipReportJSON(t *testing.T) {
	eng := membershipEngine(t)
	defer eng.Stop()
	raw, err := json.Marshal(eng.Membership())
	if err != nil {
		t.Fatal(err)
	}
	var parsed MembershipReport
	if err := json.Unmarshal(raw, &parsed); err != nil {
		t.Fatalf("parse %s: %v", raw, err)
	}
	if parsed.MaxWorkers != 4 || len(parsed.Workers) != 4 {
		t.Fatalf("parsed sizing %+v", parsed)
	}
	states := map[string]int{}
	for _, ws := range parsed.Workers {
		states[ws.State]++
	}
	if states["alive"] != 2 || states["dormant"] != 2 {
		t.Fatalf("parsed states %v", states)
	}
	if len(parsed.Operators) != 2 {
		t.Fatalf("parsed operators %+v", parsed.Operators)
	}
	for _, op := range parsed.Operators {
		if op.Parallelism != 1 || len(op.Tasks) != 1 || len(op.Workers) != 1 {
			t.Fatalf("placement row %+v", op)
		}
	}
	if parsed.RescalePending {
		t.Fatal("idle cluster reports a pending rescale")
	}
}

// TestBarrierAlignmentAcrossJoinGrowth is the elastic twin of the repair
// interaction tests: a worker joins mid-run and an all-grouping subscriber
// grows onto it, so the group's tree gains a node through the versioned
// ack'd switch while epoch barriers are continuously in flight. Barriers
// must never half-propagate across the growth: epochs keep committing
// after the rescale, and the active tree ends up containing the new member
// within the d* discipline.
func TestBarrierAlignmentAcrossJoinGrowth(t *testing.T) {
	b := NewTopologyBuilder()
	b.Spout("src", func() Spout { return &foreverSpout{} }, 1)
	b.Bolt("spy", func() Bolt { return forwardBolt{} }, 2).All("src")
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	eng, err := Start(topo, Config{
		Workers: 3, MaxWorkers: 4,
		Network:            transport.NewInprocNetwork(0),
		Comm:               WorkerOriented,
		Multicast:          MulticastNonBlocking,
		FixedDstar:         true,
		InitialDstar:       2,
		HeartbeatInterval:  2 * time.Millisecond,
		SuspectAfter:       2 * time.Second,
		ConfirmAfter:       5 * time.Second,
		CheckpointInterval: 2 * time.Millisecond,
		CheckpointTimeout:  500 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Stop()

	// Steady state: epochs committing through the 3-worker tree.
	waitEventCount(t, eng, obs.EventSnapshotComplete, 2, 10*time.Second)

	if err := eng.JoinWorker(3); err != nil {
		t.Fatal(err)
	}
	if err := eng.Rescale("spy", 3, 3); err != nil {
		t.Fatal(err)
	}
	waitEventCount(t, eng, obs.EventRescaleCommitted, 1, 15*time.Second)
	if n := countEvents(eng, obs.EventRescaleAborted); n != 0 {
		t.Fatalf("%d rescale aborts during a healthy join growth", n)
	}

	// Barriers must fully propagate across the grown tree: at least two
	// fresh epochs commit after the rescale (each needs every task's ack,
	// the new worker's included — a half-propagated barrier would time out).
	after := countEvents(eng, obs.EventSnapshotComplete)
	waitEventCount(t, eng, obs.EventSnapshotComplete, after+2, 15*time.Second)

	// The group's active tree adopted the new member under the d* cap.
	found := false
	for gid := range eng.managers {
		tr, _, ok := eng.ActiveTree(gid)
		if !ok {
			t.Fatalf("group %d has no active tree", gid)
		}
		if tr.Contains(3) {
			found = true
			if err := tr.Validate(2); err != nil {
				t.Fatalf("grown tree invalid: %v", err)
			}
		}
	}
	if !found {
		t.Fatal("no active tree contains the joined worker")
	}

	// The live placement reflects the growth.
	rep := eng.Membership()
	for _, op := range rep.Operators {
		if op.Operator == "spy" && op.Parallelism != 3 {
			t.Fatalf("spy placement %+v after rescale", op)
		}
	}
}

const (
	rescaleRecords = 120
	rescaleKeys    = 32
)

func rescaleKey(i int64) string { return fmt.Sprintf("rk-%d", i%rescaleKeys) }
func rescaleVal(i int64) int64  { return i%7 + 1 }

// rescaleReference computes the per-key sums the bounded sequence adds to.
func rescaleReference() map[string]int64 {
	out := map[string]int64{}
	for i := int64(0); i < rescaleRecords; i++ {
		out[rescaleKey(i)] += rescaleVal(i)
	}
	return out
}

// pausableSpout emits a fixed keyed sequence and then idles without exiting,
// so epochs keep flowing while the data set is frozen — crash/restore
// assertions compare against an exact reference.
type pausableSpout struct {
	limit int64
	seq   int64
}

func (s *pausableSpout) Open(*TaskContext) {}
func (s *pausableSpout) Next(c *Collector) bool {
	if s.seq >= s.limit {
		time.Sleep(100 * time.Microsecond)
		return true
	}
	i := s.seq
	s.seq++
	c.Emit(i, rescaleKey(i), rescaleVal(i))
	return true
}
func (s *pausableSpout) Close() {}

// slotSumBolt keeps per-key running sums and implements snapshot.Sharder
// keyed by grouping slot, so rescales split/merge its state exactly.
type slotSumBolt struct {
	reg *slotSumReg

	mu   sync.Mutex
	sums map[string]int64
}

type slotSumReg struct {
	mu    sync.Mutex
	bolts map[int32]*slotSumBolt
}

func newSlotSumReg() *slotSumReg { return &slotSumReg{bolts: map[int32]*slotSumBolt{}} }

func (r *slotSumReg) get(task int32) *slotSumBolt {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.bolts[task]
}

// merged unions the live agg tasks' sums (keys are owned disjointly).
func (r *slotSumReg) merged(eng *Engine, op string) map[string]int64 {
	out := map[string]int64{}
	for _, tid := range eng.tv().assign.TasksOf[op] {
		b := r.get(tid)
		if b == nil {
			return nil
		}
		b.mu.Lock()
		for k, v := range b.sums {
			out[k] += v
		}
		b.mu.Unlock()
	}
	return out
}

func (b *slotSumBolt) Prepare(ctx *TaskContext) {
	b.mu.Lock()
	b.sums = map[string]int64{}
	b.mu.Unlock()
	b.reg.mu.Lock()
	b.reg.bolts[ctx.TaskID] = b
	b.reg.mu.Unlock()
}

func (b *slotSumBolt) Execute(tp *tuple.Tuple, _ *Collector) {
	key, val := tp.StringAt(1), tp.Int(2)
	b.mu.Lock()
	b.sums[key] += val
	b.mu.Unlock()
}

func (b *slotSumBolt) Cleanup() {}

func (b *slotSumBolt) SnapshotState() ([]byte, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return json.Marshal(b.sums)
}

func (b *slotSumBolt) RestoreState(data []byte) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.sums = map[string]int64{}
	if data == nil {
		return nil
	}
	return json.Unmarshal(data, &b.sums)
}

func (b *slotSumBolt) ShardSnapshot() (map[int32][]byte, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	bySlot := map[int32]map[string]int64{}
	for k, v := range b.sums {
		s := SlotOf(k)
		if bySlot[s] == nil {
			bySlot[s] = map[string]int64{}
		}
		bySlot[s][k] = v
	}
	out := make(map[int32][]byte, len(bySlot))
	for s, m := range bySlot {
		d, err := json.Marshal(m)
		if err != nil {
			return nil, err
		}
		out[s] = d
	}
	return out, nil
}

func (b *slotSumBolt) RestoreShards(shards map[int32][]byte) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.sums = map[string]int64{}
	for _, d := range shards {
		m := map[string]int64{}
		if err := json.Unmarshal(d, &m); err != nil {
			return err
		}
		for k, v := range m {
			b.sums[k] += v
		}
	}
	return nil
}

// gateStore wraps a MemStore with a commit gate so a test can freeze the
// latest committed epoch at a chosen point.
type gateStore struct {
	*snapshot.MemStore
	mu   sync.Mutex
	deny func() bool
}

func (s *gateStore) Commit(epoch int64) error {
	s.mu.Lock()
	deny := s.deny
	s.mu.Unlock()
	if deny != nil && deny() {
		return errors.New("test: commits denied")
	}
	return s.MemStore.Commit(epoch)
}

func (s *gateStore) setDeny(f func() bool) {
	s.mu.Lock()
	s.deny = f
	s.mu.Unlock()
}

// TestRescaleCrashBeforePostRescaleCommitRestoresOldLayout is the crash-
// window regression: after a rescale's restore completes, the latest
// committed checkpoint is still the pre-rescale cut (shards stored under the
// old task ids) until the first post-rescale epoch commits. A worker death
// inside that window must restore through the retained plan — re-sourcing the
// rescaled operator's state from the old task keys with slot filtering — or
// the slots of shrink-retired tasks are silently lost.
func TestRescaleCrashBeforePostRescaleCommitRestoresOldLayout(t *testing.T) {
	ref := rescaleReference()
	// The shrink 3 -> 2 retires task index 2; its slots are exactly what a
	// plan-less restore would lose. Guard against a vacuous run.
	lostSlotKeys := 0
	for k := range ref {
		if int(SlotOf(k))%3 == 2 {
			lostSlotKeys++
		}
	}
	if lostSlotKeys == 0 {
		t.Fatal("key set exercises no slot owned by the retired task")
	}

	reg := newSlotSumReg()
	store := &gateStore{MemStore: snapshot.NewMemStore()}
	net := chaos.Wrap(transport.NewInprocNetwork(0), chaos.Config{Seed: 7})
	b := NewTopologyBuilder()
	b.Spout("src", func() Spout { return &pausableSpout{limit: rescaleRecords} }, 1)
	b.Bolt("agg", func() Bolt { return &slotSumBolt{reg: reg} }, 3).Fields("src", 1)
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	eng, err := Start(topo, Config{
		Workers: 4, MaxWorkers: 4, Network: net,
		HeartbeatInterval:  10 * time.Millisecond,
		SuspectAfter:       60 * time.Millisecond,
		ConfirmAfter:       200 * time.Millisecond,
		CheckpointInterval: 3 * time.Millisecond,
		CheckpointTimeout:  30 * time.Millisecond,
		CheckpointStore:    store,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Stop()
	// Round-robin placement the schedule relies on: spout (and coordinator)
	// on worker 0, agg tasks 1..3 on workers 1..3.
	for tid := int32(1); tid <= 3; tid++ {
		if w := eng.assign.WorkerOf[tid]; w != tid {
			t.Fatalf("task %d on worker %d; test assumes round-robin placement", tid, w)
		}
	}
	// Once the rescale's restore completes, no further epoch may commit: the
	// pre-rescale cut must stay the latest committed checkpoint so the crash
	// below lands inside the window under test.
	store.setDeny(func() bool { return countEvents(eng, obs.EventRescaleCommitted) >= 1 })

	// The whole bounded sequence is absorbed into the 3-wide aggregator.
	deadline := time.Now().Add(15 * time.Second)
	for !equalSums(reg.merged(eng, "agg"), ref) && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if got := reg.merged(eng, "agg"); !equalSums(got, ref) {
		t.Fatalf("pre-rescale sums never converged:\n got %v\nwant %v", got, ref)
	}

	// Shrink at an aligned cut; the cut snapshot holds the full state under
	// the 3-wide task ids.
	if err := eng.Rescale("agg", 2); err != nil {
		t.Fatal(err)
	}
	waitEventCount(t, eng, obs.EventRescaleCommitted, 1, 15*time.Second)
	if got := reg.merged(eng, "agg"); !equalSums(got, ref) {
		t.Fatalf("post-shrink sums diverge:\n got %v\nwant %v", got, ref)
	}

	// Crash inside the window: worker 3 hosts only the retired task, so every
	// live agg task survives and must be restored from the pre-rescale cut.
	net.Crash(3)
	waitEventCount(t, eng, obs.EventWorkerDead, 1, 10*time.Second)
	deadline = time.Now().Add(15 * time.Second)
	for eng.Metrics().Restores.Value() < 2 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if eng.Metrics().Restores.Value() < 2 {
		t.Fatal("no restore completed after the crash")
	}

	// Exactly-once across rescale + crash: the merged state equals the
	// reference — in particular the retired task's slots, which only the
	// retained plan can re-source from the old task keys.
	if got := reg.merged(eng, "agg"); !equalSums(got, ref) {
		t.Fatalf("crash inside the rescale window lost state:\n got %v\nwant %v", got, ref)
	}
	// Ownership stays a partition and the committed event is not re-emitted
	// by the window-crash restore.
	owners := map[string]int{}
	for _, tid := range eng.tv().assign.TasksOf["agg"] {
		bl := reg.get(tid)
		bl.mu.Lock()
		for k := range bl.sums {
			owners[k]++
		}
		bl.mu.Unlock()
	}
	for k, n := range owners {
		if n != 1 {
			t.Fatalf("key %s held by %d live tasks", k, n)
		}
	}
	if n := countEvents(eng, obs.EventRescaleCommitted); n != 1 {
		t.Fatalf("EventRescaleCommitted emitted %d times", n)
	}
}

func equalSums(got, want map[string]int64) bool {
	if len(got) != len(want) {
		return false
	}
	for k, v := range want {
		if got[k] != v {
			return false
		}
	}
	return true
}

// TestFieldsParallelismBoundedBySlots: the 64-slot key space caps a fields-
// grouped operator's parallelism — slot mod parallelism would never select
// task indices >= NumSlots. Build and live Rescale both reject the width;
// the same width under shuffle grouping is legal.
func TestFieldsParallelismBoundedBySlots(t *testing.T) {
	b := NewTopologyBuilder()
	b.Spout("src", func() Spout { return &countSpout{n: 0, keys: 1} }, 1)
	b.Bolt("agg", func() Bolt { return forwardBolt{} }, NumSlots+1).Fields("src", 1)
	if _, err := b.Build(); err == nil {
		t.Fatalf("fields-grouped bolt wider than %d slots accepted at build", NumSlots)
	}

	b = NewTopologyBuilder()
	b.Spout("src", func() Spout { return &countSpout{n: 0, keys: 1} }, 1)
	b.Bolt("wide", func() Bolt { return forwardBolt{} }, NumSlots+1).Shuffle("src")
	if _, err := b.Build(); err != nil {
		t.Fatalf("shuffle bolt rejected by the slot bound: %v", err)
	}

	b = NewTopologyBuilder()
	b.Spout("src", func() Spout { return &foreverSpout{} }, 1)
	b.Bolt("agg", func() Bolt { return forwardBolt{} }, 2).Fields("src", 1)
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	eng, err := Start(topo, Config{
		Workers: 2, Network: transport.NewInprocNetwork(0),
		CheckpointInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Stop()
	if err := eng.Rescale("agg", NumSlots+1); err == nil {
		t.Fatalf("live rescale past %d slots accepted", NumSlots)
	}
}

// rescaleTargetEngine starts a cluster with a dormant worker and a long
// checkpoint interval, so a requested rescale plan stays armed (or applies
// only under the test's control).
func rescaleTargetEngine(t *testing.T, interval time.Duration) *Engine {
	t.Helper()
	b := NewTopologyBuilder()
	b.Spout("src", func() Spout { return &foreverSpout{} }, 1)
	b.Bolt("sink", func() Bolt { return forwardBolt{} }, 1).Shuffle("src")
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	eng, err := Start(topo, Config{
		Workers: 2, MaxWorkers: 3,
		Network:            transport.NewInprocNetwork(0),
		HeartbeatInterval:  2 * time.Millisecond,
		SuspectAfter:       2 * time.Second,
		ConfirmAfter:       5 * time.Second,
		CheckpointInterval: interval,
		CheckpointTimeout:  500 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// TestLeaveWorkerRejectedWhileRescaleTargetsIt closes the placement TOCTOU
// from the leave side: a worker named by an armed-but-unapplied rescale plan
// must not be allowed to gracefully leave — it would end up hosting the new
// tasks while unjoined, invisible to the failure sweep.
// TestStaleJoinRetryCannotReadmit: the monitor admits a worker only while
// its JoinWorker call still awaits the CtrlWelcome. A duplicated CtrlJoin
// retry delivered after the handshake completed — and after the worker has
// since gracefully left — must not flip it back into the membership (its
// heartbeats are stopped, so the failure sweep would confirm the phantom
// member dead).
func TestStaleJoinRetryCannotReadmit(t *testing.T) {
	eng := rescaleTargetEngine(t, time.Hour)
	defer eng.Stop()
	if err := eng.JoinWorker(2); err != nil {
		t.Fatal(err)
	}
	if err := eng.LeaveWorker(2); err != nil {
		t.Fatal(err)
	}
	// Replay a stale CtrlJoin retry; the empty request behind it returns once
	// the loop has handled it.
	eng.mon.post(ctrlJoin{node: 2, attempt: joinAttempts})
	eng.mon.ask(func() {})
	if eng.joinedWorker(2) {
		t.Fatal("stale join retry re-admitted a departed worker")
	}
	// A genuine rejoin still works.
	if err := eng.JoinWorker(2); err != nil {
		t.Fatal(err)
	}
	if !eng.joinedWorker(2) {
		t.Fatal("rejoin after leave failed")
	}
}

func TestLeaveWorkerRejectedWhileRescaleTargetsIt(t *testing.T) {
	eng := rescaleTargetEngine(t, time.Hour) // coordinator never ticks: plan stays pending
	defer eng.Stop()
	if err := eng.JoinWorker(2); err != nil {
		t.Fatal(err)
	}
	if err := eng.Rescale("sink", 2, 2); err != nil {
		t.Fatal(err)
	}
	if err := eng.LeaveWorker(2); err == nil {
		t.Fatal("placement target of a pending rescale allowed to leave")
	}
}

// TestShardedRestoreFallsBackToLegacyBlob: a durable checkpoint written
// before shard encoding stores a plain SnapshotState payload; a Sharder
// restoring from it must detect the missing shard magic and reinstall via
// RestoreState instead of failing to decode.
func TestShardedRestoreFallsBackToLegacyBlob(t *testing.T) {
	reg := newSlotSumReg()
	store := snapshot.NewMemStore()
	b := NewTopologyBuilder()
	b.Spout("src", func() Spout { return &countSpout{n: 0, keys: 1} }, 1)
	b.Bolt("agg", func() Bolt { return &slotSumBolt{reg: reg} }, 1).Fields("src", 1)
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	eng, err := Start(topo, Config{
		Workers: 1, Network: transport.NewInprocNetwork(0),
		CheckpointInterval: time.Hour, // coordinator exists but never fires
		CheckpointStore:    store,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Stop()
	tid := eng.assign.TasksOf["agg"][0]
	deadline := time.Now().Add(5 * time.Second)
	for reg.get(tid) == nil && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	bolt := reg.get(tid)
	if bolt == nil {
		t.Fatal("agg bolt never prepared")
	}

	want := map[string]int64{"a": 3, "b": 9}
	legacy, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	if snapshot.IsShardEncoded(legacy) {
		t.Fatal("legacy blob collides with the shard magic")
	}
	if err := store.Put(5, taskKey(tid), legacy); err != nil {
		t.Fatal(err)
	}
	if err := store.Commit(5); err != nil {
		t.Fatal(err)
	}

	ex := eng.workers[0].execMap()[tid]
	if err := eng.ckpt.restoreTask(ex, 5); err != nil {
		t.Fatalf("legacy restore: %v", err)
	}
	bolt.mu.Lock()
	got := make(map[string]int64, len(bolt.sums))
	for k, v := range bolt.sums {
		got[k] = v
	}
	bolt.mu.Unlock()
	if !equalSums(got, want) {
		t.Fatalf("legacy restore installed %v, want %v", got, want)
	}
}
