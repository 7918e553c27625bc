package dsps

import (
	"fmt"
	"sort"

	"whale/internal/tuple"
)

// Assignment maps the topology's tasks onto workers. Task ids are dense and
// deterministic: operators in declaration order, tasks within an operator
// in index order.
type Assignment struct {
	// Tasks holds every task's context, indexed by task id.
	Tasks []TaskContext
	// TasksOf lists an operator's task ids in index order.
	TasksOf map[string][]int32
	// WorkerOf gives the hosting worker per task id.
	WorkerOf []int32
	// Workers is the worker count.
	Workers int
}

// retiredWorker marks a task retired by a shrink rescale in WorkerOf: the
// task id stays allocated (ids are dense indices into Tasks/WorkerOf and
// must stay stable across rescales) but no routing, barrier, checkpoint or
// membership computation considers it.
const retiredWorker int32 = -1

// retired reports whether tid was retired by a shrink rescale.
func (a *Assignment) retired(tid int32) bool { return a.WorkerOf[tid] == retiredWorker }

// Assign places tasks round-robin across workers, mirroring Storm's default
// even spreading: task k of the global dense ordering goes to worker
// k mod workers. With parallelism >= workers this co-locates multiple
// instances of an operator on each worker — the situation one-to-many
// partitioning exploits.
func Assign(t *Topology, workers int) (*Assignment, error) {
	if workers < 1 {
		return nil, fmt.Errorf("dsps: %d workers", workers)
	}
	a := &Assignment{TasksOf: map[string][]int32{}, Workers: workers}
	next := int32(0)
	for _, id := range t.Order {
		op := t.Operators[id]
		for i := 0; i < op.Parallelism; i++ {
			tid := next
			next++
			w := int32(int(tid) % workers)
			a.Tasks = append(a.Tasks, TaskContext{
				TaskID:      tid,
				OperatorID:  id,
				TaskIndex:   i,
				Parallelism: op.Parallelism,
				Worker:      w,
			})
			a.TasksOf[id] = append(a.TasksOf[id], tid)
			a.WorkerOf = append(a.WorkerOf, w)
		}
	}
	return a, nil
}

// Rescaled derives a new assignment with op's parallelism changed to
// newPar, leaving the receiver untouched. Task ids stay stable: the first
// min(old, new) ids keep their identity; growth appends fresh ids at the
// global tail hosted on placeOn (one worker per new task, chosen by the
// caller); shrinkage retires the tail ids (WorkerOf = retiredWorker)
// instead of compacting, so no surviving task id ever changes meaning.
// TaskIndex/Parallelism of the op's live tasks are rewritten for the new
// width; retired task contexts keep their final pre-retirement values.
func (a *Assignment) Rescaled(op string, newPar int, placeOn []int32) (*Assignment, error) {
	old := a.TasksOf[op]
	if len(old) == 0 {
		return nil, fmt.Errorf("dsps: rescale of unknown operator %q", op)
	}
	if newPar < 1 {
		return nil, fmt.Errorf("dsps: rescale %q to parallelism %d", op, newPar)
	}
	if newPar == len(old) {
		return nil, fmt.Errorf("dsps: %q already at parallelism %d", op, newPar)
	}
	n := &Assignment{
		Tasks:    append([]TaskContext(nil), a.Tasks...),
		TasksOf:  make(map[string][]int32, len(a.TasksOf)),
		WorkerOf: append([]int32(nil), a.WorkerOf...),
		Workers:  a.Workers,
	}
	for id, tids := range a.TasksOf {
		n.TasksOf[id] = append([]int32(nil), tids...)
	}
	keep := newPar
	if len(old) < keep {
		keep = len(old)
	}
	tids := append([]int32(nil), old[:keep]...)
	if newPar > len(old) {
		if len(placeOn) != newPar-len(old) {
			return nil, fmt.Errorf("dsps: rescale %q to %d needs %d placements, got %d", op, newPar, newPar-len(old), len(placeOn))
		}
		for _, w := range placeOn {
			tid := int32(len(n.Tasks))
			n.Tasks = append(n.Tasks, TaskContext{TaskID: tid, OperatorID: op, Worker: w})
			n.WorkerOf = append(n.WorkerOf, w)
			tids = append(tids, tid)
		}
	} else {
		for _, tid := range old[keep:] {
			n.WorkerOf[tid] = retiredWorker
		}
	}
	for i, tid := range tids {
		n.Tasks[tid].TaskIndex = i
		n.Tasks[tid].Parallelism = newPar
		n.Tasks[tid].Worker = n.WorkerOf[tid]
	}
	n.TasksOf[op] = tids
	return n, nil
}

// LocalTasks returns the task ids hosted on worker w, ascending.
func (a *Assignment) LocalTasks(w int32) []int32 {
	var out []int32
	for tid, wk := range a.WorkerOf {
		if wk == w {
			out = append(out, int32(tid))
		}
	}
	return out
}

// TasksOnWorker returns op's task ids hosted on worker w.
func (a *Assignment) TasksOnWorker(op string, w int32) []int32 {
	var out []int32
	for _, tid := range a.TasksOf[op] {
		if a.WorkerOf[tid] == w {
			out = append(out, tid)
		}
	}
	return out
}

// WorkersOf returns the sorted distinct workers hosting op's tasks.
func (a *Assignment) WorkersOf(op string) []int32 {
	seen := map[int32]bool{}
	for _, tid := range a.TasksOf[op] {
		seen[a.WorkerOf[tid]] = true
	}
	out := make([]int32, 0, len(seen))
	for w := range seen {
		out = append(out, w)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// route is one precomputed outgoing edge from an operator's stream.
type route struct {
	sub      Subscription
	dstOp    string
	dstTasks []int32 // all destination task ids, index order
	// localTasks are dstOp's tasks hosted on the emitting worker (for
	// local-or-shuffle grouping).
	localTasks []int32
	// byRoot keys a fields-grouped ack-plane edge by the frame's RootID:
	// ack frames carry no fields (acking.go), and HashValue of the root
	// equals the hash of the int64 field 0 they once carried, so every
	// root keeps its acker task.
	byRoot bool
}

// router decides destination tasks for each emitted tuple. One router is
// built per executor (it carries the executor's shuffle counter).
type router struct {
	routes  map[string][]route // stream -> outgoing edges
	shuffle map[string]int     // per dstOp round-robin cursor
	dests   []destination      // destinations' result, reused by the next call
}

func newRouter(t *Topology, a *Assignment, srcOp string, localWorker int32) *router {
	r := &router{routes: map[string][]route{}, shuffle: map[string]int{}}
	streams := map[string]bool{srcOp: true}
	// Named streams appear via subscriptions; collect every stream any
	// subscriber listens to on this operator.
	for _, id := range t.Order {
		for _, s := range t.Operators[id].Subs {
			if s.SrcOperator == srcOp {
				streams[s.Stream] = true
			}
		}
	}
	for stream := range streams {
		for _, sub := range t.Subscribers(srcOp, stream) {
			r.routes[stream] = append(r.routes[stream], route{
				sub:        sub.Sub,
				dstOp:      sub.Op.ID,
				dstTasks:   a.TasksOf[sub.Op.ID],
				localTasks: a.TasksOnWorker(sub.Op.ID, localWorker),
				byRoot:     isAckStream(stream),
			})
		}
	}
	return r
}

// destination is the routing verdict for one edge.
type destination struct {
	dstOp string
	// all is true for all-grouping: every task of dstOp receives the tuple.
	all bool
	// tasks holds the selected task ids when all is false.
	tasks []int32
}

// destinations computes, for one emitted tuple on stream, every edge's
// destinations. The result is the router's scratch: it is valid until the
// next call, which the executor owning the router makes only after it has
// routed this tuple.
func (r *router) destinations(stream string, tp *tuple.Tuple) ([]destination, error) {
	routes := r.routes[stream]
	out := r.dests[:0]
	for _, rt := range routes {
		switch rt.sub.Type {
		case ShuffleGrouping:
			i := r.shuffle[rt.dstOp] % len(rt.dstTasks)
			r.shuffle[rt.dstOp]++
			out = append(out, destination{dstOp: rt.dstOp, tasks: rt.dstTasks[i : i+1]})
		case FieldsGrouping:
			var h uint64
			switch {
			case rt.byRoot:
				h = tuple.HashValue(tp.RootID)
			case rt.sub.FieldIdx >= tp.Len():
				return nil, fmt.Errorf("dsps: fields grouping on field %d of %d-field tuple", rt.sub.FieldIdx, tp.Len())
			default:
				h = tp.HashField(rt.sub.FieldIdx)
			}
			i := int(h%NumSlots) % len(rt.dstTasks)
			out = append(out, destination{dstOp: rt.dstOp, tasks: rt.dstTasks[i : i+1]})
		case AllGrouping:
			out = append(out, destination{dstOp: rt.dstOp, all: true, tasks: rt.dstTasks})
		case GlobalGrouping:
			out = append(out, destination{dstOp: rt.dstOp, tasks: rt.dstTasks[:1]})
		case LocalOrShuffleGrouping:
			pool := rt.localTasks
			if len(pool) == 0 {
				pool = rt.dstTasks
			}
			i := r.shuffle[rt.dstOp] % len(pool)
			r.shuffle[rt.dstOp]++
			out = append(out, destination{dstOp: rt.dstOp, tasks: pool[i : i+1]})
		default:
			return nil, fmt.Errorf("dsps: unknown grouping %v", rt.sub.Type)
		}
	}
	r.dests = out
	return out, nil
}

// NumSlots is the fixed key-space width for fields grouping. A key maps to
// a slot (stable across parallelism changes) and the slot maps to a task by
// slot mod parallelism. State sharded by slot id (snapshot.Sharder) can
// therefore be split and merged exactly during a rescale: the slot a key
// lives in never moves, only the task owning the slot does.
//
// The width is also a hard parallelism bound for fields-grouped operators:
// with fewer slots than tasks, task indices >= NumSlots would never be
// selected. Topology build and Rescale both reject such widths.
const NumSlots = 64

// SlotOf returns the key-grouping slot for one field value, in [0, NumSlots).
// The router computes the same slot from a tuple's field without boxing it
// (tuple.HashField).
func SlotOf(v tuple.Value) int32 {
	return int32(tuple.HashValue(v) % NumSlots)
}
