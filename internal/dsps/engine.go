package dsps

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"whale/internal/control"
	"whale/internal/metrics"
	"whale/internal/multicast"
	"whale/internal/obs"
	"whale/internal/queueing"
	"whale/internal/rdma"
	"whale/internal/snapshot"
	"whale/internal/transport"
	"whale/internal/tuple"
)

// CommMode selects the communication mechanism.
type CommMode int

const (
	// InstanceOriented is the stock Storm baseline: one serialization and
	// one message per destination instance (paper Fig. 9a).
	InstanceOriented CommMode = iota
	// WorkerOriented is Whale's mechanism: one serialization per tuple, one
	// message per destination worker (paper §3.5, Fig. 9b).
	WorkerOriented
)

func (m CommMode) String() string {
	if m == WorkerOriented {
		return "worker-oriented"
	}
	return "instance-oriented"
}

// MulticastMode selects how worker-oriented all-grouping fans out across
// workers.
type MulticastMode int

const (
	// MulticastStar sends directly from the source worker to every
	// destination worker (sequential multicast at worker granularity).
	MulticastStar MulticastMode = iota
	// MulticastBinomial relays along a static binomial tree (RDMC).
	MulticastBinomial
	// MulticastNonBlocking relays along Whale's self-adjusting non-blocking
	// tree (d* capped, adapted by the §3.3 controller unless FixedDstar).
	MulticastNonBlocking
)

func (m MulticastMode) String() string {
	switch m {
	case MulticastBinomial:
		return "binomial"
	case MulticastNonBlocking:
		return "non-blocking"
	}
	return "star"
}

// Config parameterises an engine run.
type Config struct {
	// Workers is the worker (process) count; tasks spread round-robin.
	Workers int
	// MaxWorkers caps the cluster's elastic size: workers Workers..
	// MaxWorkers-1 start dormant (registered on the network, hosting no
	// tasks, excluded from failure detection and assignment) and can be
	// admitted later through JoinWorker's CtrlJoin/CtrlWelcome handshake.
	// Defaults to Workers — a fixed-size cluster.
	MaxWorkers int
	// Network provides worker transports. Required.
	Network transport.Network
	// Comm selects instance- vs worker-oriented communication.
	Comm CommMode
	// Multicast selects the all-grouping fan-out (worker-oriented only).
	Multicast MulticastMode
	// TransferQueueCap is Q, the transfer queue capacity (default 1024).
	TransferQueueCap int
	// ExecutorQueueCap bounds executor inbound queues (default 4096): local
	// producers wait for room, and a remote tuple beyond it is credited on take.
	ExecutorQueueCap int
	// Control configures the self-adjusting controller.
	Control control.Config
	// MonitorInterval is the controller's Δt (default 10 ms).
	MonitorInterval time.Duration
	// InitialDstar seeds the non-blocking tree's out-degree cap (default 3,
	// the value the paper fixes in Figs. 21-22).
	InitialDstar int
	// FixedDstar disables adaptation, pinning d* at InitialDstar.
	FixedDstar bool

	// AckEnabled turns on the Storm-style reliability plane: tuples emitted
	// with Collector.EmitReliable are tracked end to end by acker tasks.
	AckEnabled bool
	// Ackers is the acker operator's parallelism (default 1).
	Ackers int
	// AckTimeout fails reliability trees that do not complete in time
	// (default 5s).
	AckTimeout time.Duration
	// MaxSpoutPending caps in-flight reliability trees per spout task
	// (0 = unlimited). Requires AckEnabled, and at most ExecutorQueueCap:
	// the spout's queue must hold an ack event for every tree in flight.
	MaxSpoutPending int

	// HeartbeatInterval enables the failure detector: every worker beacons
	// a CtrlHeartbeat to the monitor (worker 0) at this period, and the
	// monitor sweeps for silence. 0 disables failure detection.
	HeartbeatInterval time.Duration
	// SuspectAfter is the silence after which a worker is suspected
	// (default 5×HeartbeatInterval).
	SuspectAfter time.Duration
	// ConfirmAfter is the silence after which a suspected worker is
	// confirmed dead and tree repair starts (default 3×SuspectAfter).
	// Confirmation is terminal: a falsely-confirmed worker stays fenced.
	ConfirmAfter time.Duration

	// SendRetries bounds per-send retries on transient transport errors
	// (default 3; negative disables retrying).
	SendRetries int
	// SendRetryBase is the first retry backoff, doubled per attempt with
	// jitter (default 200µs).
	SendRetryBase time.Duration

	// CreditWindow is the per-link credit window in delivery units: the
	// maximum units a sender may have outstanding (charged but not granted
	// back) toward one destination worker (default 4096; negative is
	// rejected by Start). The default is deliberately several times the
	// per-hop buffering of the uncontrolled transport: the window must
	// cover the grant round-trip at full rate, including scheduling delay
	// on loaded hosts, or the credit protocol itself becomes the
	// bottleneck.
	CreditWindow int
	// LinkQueueCap bounds each flow-controlled link's send queue
	// (default 4096).
	LinkQueueCap int
	// ShedPolicy selects what a full link does with best-effort tuples:
	// block the producer (default), shed the newest, or shed the oldest.
	// Acked-stream tuples always block and are never shed.
	ShedPolicy ShedPolicy
	// PauseAfter marks a link paused once one continuous credit wait lasts
	// this long — the receiver is effectively not draining (default 150ms).
	PauseAfter time.Duration
	// DegradedAfter reports a subscriber as degraded through the failure
	// detector path once its link stays paused this long
	// (default 4×PauseAfter).
	DegradedAfter time.Duration
	// CreditTimeout bounds one credit wait: on expiry the sender forgives
	// outstanding debt (assuming grants were lost) and proceeds
	// (default 1s).
	CreditTimeout time.Duration
	// DrainTimeout bounds the quiescence drain inside Stop (default 2s).
	DrainTimeout time.Duration

	// CheckpointInterval enables aligned snapshot checkpointing (see
	// checkpoint.go): every interval the coordinator opens an epoch,
	// injects barriers at the sources and commits once every task has
	// snapshotted. Zero (default) disables checkpointing entirely — the
	// data path then carries only an epoch-stamp field write.
	CheckpointInterval time.Duration
	// CheckpointTimeout aborts an epoch whose barriers have not fully
	// propagated — a tree repair pruned them, or a task stalled (default
	// 10×CheckpointInterval). The next epoch supersedes the aborted one.
	CheckpointTimeout time.Duration
	// CheckpointStore persists task snapshots and source offsets per epoch
	// (default: an in-memory store; use snapshot.NewFileStore to survive
	// process restarts).
	CheckpointStore snapshot.Store

	// Autoscale enables the M/D/1-driven parallelism controller (see
	// autoscale.go): per-operator load estimates from the obs counters,
	// utilization-band decisions, actuation through Rescale. Requires
	// CheckpointInterval > 0. The zero value disables it — the engine then
	// carries no controller goroutine or state at all.
	Autoscale AutoscaleConfig

	// Obs is the observability scope every subsystem registers into. When
	// nil the engine creates a private scope with tracing disabled, so
	// instrumentation call sites never need nil checks.
	Obs *obs.Scope
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 1
	}
	if c.MaxWorkers < c.Workers {
		c.MaxWorkers = c.Workers
	}
	if c.TransferQueueCap <= 0 {
		c.TransferQueueCap = 1024
	}
	if c.ExecutorQueueCap <= 0 {
		c.ExecutorQueueCap = 4096
	}
	if c.MonitorInterval <= 0 {
		c.MonitorInterval = 10 * time.Millisecond
	}
	if c.InitialDstar <= 0 {
		c.InitialDstar = 3
	}
	if c.Control.QueueCapacity <= 0 {
		c.Control.QueueCapacity = c.TransferQueueCap
	}
	if c.Ackers <= 0 {
		c.Ackers = 1
	}
	if c.AckTimeout <= 0 {
		c.AckTimeout = 5 * time.Second
	}
	if c.HeartbeatInterval > 0 {
		if c.SuspectAfter <= 0 {
			c.SuspectAfter = 5 * c.HeartbeatInterval
		}
		if c.ConfirmAfter <= 0 {
			c.ConfirmAfter = 3 * c.SuspectAfter
		}
	}
	switch {
	case c.SendRetries == 0:
		c.SendRetries = 3
	case c.SendRetries < 0:
		c.SendRetries = 0
	}
	if c.SendRetryBase <= 0 {
		c.SendRetryBase = 200 * time.Microsecond
	}
	if c.CreditWindow == 0 {
		c.CreditWindow = 4096
	}
	if c.LinkQueueCap <= 0 {
		c.LinkQueueCap = 4096
	}
	if c.PauseAfter <= 0 {
		c.PauseAfter = 150 * time.Millisecond
	}
	if c.DegradedAfter <= 0 {
		c.DegradedAfter = 4 * c.PauseAfter
	}
	if c.CreditTimeout <= 0 {
		c.CreditTimeout = time.Second
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 2 * time.Second
	}
	if c.CheckpointInterval > 0 && c.CheckpointTimeout <= 0 {
		c.CheckpointTimeout = 10 * c.CheckpointInterval
	}
	c.Autoscale = c.Autoscale.withDefaults()
	return c
}

// Metrics aggregates engine-wide instrumentation.
type Metrics struct {
	TuplesEmitted   metrics.Counter
	TuplesExecuted  metrics.Counter
	TuplesCompleted metrics.Counter // tuples reaching a sink
	TuplesAcked     metrics.Counter // reliability trees completed
	TuplesFailed    metrics.Counter // reliability trees failed/timed out
	RouteErrors     metrics.Counter
	SendErrors      metrics.Counter
	SendRetries     metrics.Counter // transient-error send retries
	SendsSuppressed metrics.Counter // sends dropped because the peer is confirmed dead
	WorkerFailures  metrics.Counter // workers confirmed dead by the detector
	DecodeErrors    metrics.Counter
	Serializations  metrics.Counter
	SerializationNS metrics.Counter
	Switches        metrics.Counter
	SkippedSwitches metrics.Counter // scale-ups rejected by the Theorem 5 guard
	CreditsWaited   metrics.Counter // sends that blocked on an exhausted credit window
	CreditWaitNS    metrics.Counter // total time spent blocked on credits
	CreditTimeouts  metrics.Counter // credit waits resolved by forgiving lost grants
	CreditGrants    metrics.Counter // CtrlCredit messages sent
	TuplesShed      metrics.Counter // best-effort tuples dropped by the shed policy
	LinkPauses      metrics.Counter // link transitions into the paused state
	DrainTimeouts   metrics.Counter // Stop drains that hit DrainTimeout
	ReplayNS        metrics.Counter // total send retry-backoff (replay) time
	ExecQueueWaitNS metrics.Counter // sampled put-to-take executor-inbox residency of traced tuples

	EpochsCompleted metrics.Counter // snapshot epochs committed
	EpochsAborted   metrics.Counter // snapshot epochs discarded (timeout/failure)
	TuplesFenced    metrics.Counter // replayed tuples discarded below the fence
	AlignBuffered   metrics.Counter // tuples parked during barrier alignment
	AlignWaitNS     metrics.Counter // total alignment-buffer residency
	Restores        metrics.Counter // completed recoveries
	SnapshotErrors  metrics.Counter // task-level snapshot/restore/commit errors

	ProcessingLatency metrics.Histogram // spout -> sink, ns
	MulticastLatency  metrics.Histogram // emit -> worker arrival, ns
	SwitchLatency     metrics.Histogram // switch trigger -> all ACKs, ns
	CompleteLatency   metrics.Histogram // reliable emit -> tree complete, ns
	EpochLatency      metrics.Histogram // epoch open -> all tasks acked, ns
}

// opMetrics is one executor's share of an operator's instrumentation.
// Each executor owns its own instance so the execute hot path never
// contends across workers; reporting merges them (Histogram.Merge).
type opMetrics struct {
	executed metrics.Counter
	emitted  metrics.Counter
	execNS   metrics.Histogram
}

// OperatorStats is a reporting snapshot for one operator.
type OperatorStats struct {
	// Executed counts tuples processed by the operator's instances.
	Executed int64
	// Emitted counts tuples the operator emitted (per subscribed edge).
	Emitted int64
	// ExecLatency summarises per-tuple Execute durations.
	ExecLatency metrics.Snapshot
}

// groupKey identifies a multicast group statically.
type groupKey struct {
	op     string
	stream string
	worker int32
}

// groupDesc describes a multicast group. The group's identity (source
// operator/stream/worker) is fixed at build time; membership and the
// per-worker subscribed-task lists change when an operator rescales, so
// they live behind an atomic pointer read on the relay/delivery hot paths.
type groupDesc struct {
	id      int32
	key     groupKey
	dstOps  []string // subscriber operators (all-grouping), for recomputation
	members []int32  // initial destination workers (tree leaves/relays)
	// lt is the live worker -> locally-subscribed-tasks map.
	lt atomic.Pointer[map[int32][]int32]
}

// topoView is the engine's live task-placement view: the current assignment
// plus the derived worker-oriented remote index. It is immutable once
// published; a rescale installs a fresh view atomically so hot-path readers
// (routing, barrier fan-out, delivery) see either the old or the new
// placement, never a mix.
type topoView struct {
	assign   *Assignment
	remoteBy map[string]map[int32]map[int32][]int32 // op -> srcWorker -> dstWorker -> tasks
}

// Engine runs one topology.
type Engine struct {
	topo *Topology
	// assign is the assignment the engine launched with. It is frozen —
	// rescales publish new assignments through view — and kept for
	// introspection of the initial placement.
	assign  *Assignment
	cfg     Config
	startNS int64 // engine launch time; the attribution window's origin

	// view is the live placement (assignment + remote index). All routing,
	// barrier and delivery paths read it through tv(); rescales swap it.
	view atomic.Pointer[topoView]

	workers    []*worker
	metrics    *Metrics
	obs        *obs.Scope
	groupDescs []*groupDesc
	groupIDs   map[groupKey]int32
	managers   map[int32]*mcManager
	taskMgr    map[int32]*mcManager
	// opStats holds the per-executor metric shares by operator, merged on
	// read: an immutable map replaced copy-on-write, like worker.execs —
	// written at Start and by the monitor loop when a rescale adds executors.
	opStats atomic.Pointer[map[string][]*opMetrics]

	// mon is the monitor loop: the single owner of detector, ckpt and scaler
	// state (see monitor.go). The data plane reads only dead, joined and view.
	mon      *monitor
	detector *failureDetector       // nil unless HeartbeatInterval > 0
	dead     []atomic.Bool          // confirmed-dead flags, read on the route/send hot paths
	joined   []atomic.Bool          // membership flags; dormant workers are unjoined
	ckpt     *checkpointCoordinator // nil unless CheckpointInterval > 0
	scaler   *autoscaler            // nil unless Autoscale.Interval > 0

	stopSpoutsOnce sync.Once
	stopSpouts     chan struct{}
	spoutWG        sync.WaitGroup
	stopping       chan struct{} // closed first in Stop: aborts backoffs and credit waits
	stopTick       chan struct{}
	auxWG          sync.WaitGroup // monitor loop, heartbeats, tickers
	stopped        atomic.Bool    // set by the first Stop; later calls return at once
}

// tv returns the engine's live topology view. Hot path: one atomic load.
func (e *Engine) tv() *topoView { return e.view.Load() }

// Start builds and launches the topology on the configured network.
func Start(topo *Topology, cfg Config) (*Engine, error) {
	cfg = cfg.withDefaults()
	if cfg.Network == nil {
		return nil, fmt.Errorf("dsps: Config.Network is required")
	}
	if cfg.Comm == InstanceOriented && cfg.Multicast != MulticastStar {
		return nil, fmt.Errorf("dsps: tree multicast requires worker-oriented communication")
	}
	if cfg.CreditWindow < 0 {
		return nil, fmt.Errorf("dsps: Config.CreditWindow must not be negative (every link is credited)")
	}
	if cfg.MaxSpoutPending > 0 && !cfg.AckEnabled {
		return nil, fmt.Errorf("dsps: MaxSpoutPending requires AckEnabled")
	}
	if cfg.MaxSpoutPending > cfg.ExecutorQueueCap {
		// The acker answers each tree in the spout's inbox. With room for
		// fewer answers than trees in flight, a co-located acker waits for
		// room there while the spout blocks emitting to the acker.
		return nil, fmt.Errorf("dsps: MaxSpoutPending %d exceeds ExecutorQueueCap %d: the spout and its acker would block on each other's full queues",
			cfg.MaxSpoutPending, cfg.ExecutorQueueCap)
	}
	if _, taken := topo.Operators[ackerOperatorID]; taken {
		return nil, fmt.Errorf("dsps: operator id %q is reserved", ackerOperatorID)
	}
	scope := cfg.Obs
	if scope == nil {
		scope = obs.NewScope(obs.Config{}) // private, tracing disabled
	}
	eng := &Engine{
		cfg:        cfg,
		startNS:    time.Now().UnixNano(),
		metrics:    &Metrics{},
		obs:        scope,
		groupIDs:   map[groupKey]int32{},
		managers:   map[int32]*mcManager{},
		taskMgr:    map[int32]*mcManager{},
		stopSpouts: make(chan struct{}),
		stopping:   make(chan struct{}),
		stopTick:   make(chan struct{}),
		dead:       make([]atomic.Bool, cfg.MaxWorkers),
		joined:     make([]atomic.Bool, cfg.MaxWorkers),
	}
	eng.opStats.Store(&map[string][]*opMetrics{})
	eng.mon = newMonitor(eng)
	for wid := 0; wid < cfg.Workers; wid++ {
		eng.joined[wid].Store(true)
	}
	if cfg.HeartbeatInterval > 0 && cfg.MaxWorkers > 1 {
		eng.detector = newFailureDetector(eng)
	}
	if cfg.AckEnabled {
		topo = withAcking(topo, eng, cfg.Ackers, cfg.AckTimeout)
	}
	assign, err := Assign(topo, cfg.Workers)
	if err != nil {
		return nil, err
	}
	eng.topo, eng.assign = topo, assign
	eng.view.Store(&topoView{assign: assign, remoteBy: buildRemote(topo, assign, cfg.MaxWorkers)})

	// Workers and transports — all MaxWorkers of them: dormant workers run
	// their send/delivery loops from the start so admission is purely a
	// control-plane event, never a data-plane hot swap.
	for wid := 0; wid < cfg.MaxWorkers; wid++ {
		w := newWorker(eng, int32(wid))
		eng.workers = append(eng.workers, w)
	}
	for _, w := range eng.workers {
		w := w
		tr, err := cfg.Network.Register(w.id, func(from transport.WorkerID, payload []byte) {
			w.dispatch(from, payload)
		})
		if err != nil {
			return nil, err
		}
		w.tr = tr
	}

	// Sink detection: an operator is a sink if nothing subscribes to it.
	// The ack plane is invisible here: the acker's subscriptions do not
	// keep user operators from being sinks, and the acker itself never
	// records completions.
	isSink := map[string]bool{}
	for _, id := range topo.Order {
		isSink[id] = true
	}
	for _, id := range topo.Order {
		if id == ackerOperatorID {
			continue
		}
		for _, s := range topo.Operators[id].Subs {
			isSink[s.SrcOperator] = false
		}
	}
	isSink[ackerOperatorID] = false

	// Executors.
	for _, tc := range assign.Tasks {
		spec := topo.Operators[tc.OperatorID]
		w := eng.workers[tc.Worker]
		rt := newRouter(topo, assign, tc.OperatorID, tc.Worker)
		ex := newExecutor(w, tc, spec, assign, rt, isSink[tc.OperatorID], cfg.ExecutorQueueCap)
		w.addExecutor(ex)
	}

	// Multicast groups (tree modes only).
	if cfg.Comm == WorkerOriented && cfg.Multicast != MulticastStar {
		if err := eng.buildGroups(); err != nil {
			return nil, err
		}
	}
	if cfg.CheckpointInterval > 0 {
		eng.ckpt = newCheckpointCoordinator(eng)
	}
	if cfg.Autoscale.Interval > 0 {
		if eng.ckpt == nil {
			return nil, fmt.Errorf("dsps: Autoscale requires checkpointing (Config.CheckpointInterval): rescale rides aligned cuts")
		}
		eng.scaler = newAutoscaler(eng)
	}
	eng.registerObs()

	// Launch: bolts, send threads, the monitor loop and tickers, then spouts.
	for _, w := range eng.workers {
		for _, ex := range w.execMap() {
			if ex.bolt != nil {
				w.wg.Add(1)
				go ex.runBolt()
			}
		}
		w.sendWG.Add(1)
		go w.sendLoop()
		w.wg.Add(1)
		go w.deliverLoop()
	}
	if eng.detector != nil {
		for _, w := range eng.workers {
			if w.id == eng.detector.monitor || !eng.joined[w.id].Load() {
				continue // the monitor observes; dormant workers beacon on join
			}
			eng.mon.startHeartbeat(w)
		}
	}
	eng.auxWG.Add(1)
	go eng.mon.run()
	if cfg.AckEnabled {
		eng.auxWG.Add(1)
		go eng.ackTicker()
	}
	eng.auxWG.Add(1)
	go eng.creditTicker()
	for _, id := range topo.Order {
		if iv := topo.Operators[id].TickInterval; iv > 0 && !topo.Operators[id].IsSpout {
			eng.auxWG.Add(1)
			go eng.userTicker(id, iv)
		}
	}
	for _, w := range eng.workers {
		for _, ex := range w.execMap() {
			if ex.spout != nil {
				w.wg.Add(1)
				eng.spoutWG.Add(1)
				ex := ex
				go func() {
					defer eng.spoutWG.Done()
					ex.runSpout()
				}()
			}
		}
	}
	return eng, nil
}

// buildRemote precomputes, for every operator and source worker, the
// destination tasks grouped by remote worker (the worker-oriented batch
// map). Pure: it derives entirely from the assignment, so a rescale builds
// a fresh index for its new view without touching the live one.
func buildRemote(topo *Topology, a *Assignment, maxWorkers int) map[string]map[int32]map[int32][]int32 {
	out := map[string]map[int32]map[int32][]int32{}
	for _, id := range topo.Order {
		perSrc := map[int32]map[int32][]int32{}
		for src := int32(0); src < int32(maxWorkers); src++ {
			byWorker := map[int32][]int32{}
			for _, tid := range a.TasksOf[id] {
				dw := a.WorkerOf[tid]
				if dw != src {
					byWorker[dw] = append(byWorker[dw], tid)
				}
			}
			perSrc[src] = byWorker
		}
		out[id] = perSrc
	}
	return out
}

// buildGroups enumerates multicast groups — one per (source operator,
// stream, source worker) with at least one all-grouping subscriber — and
// installs version-1 trees everywhere (standing in for initial topology
// deployment).
func (e *Engine) buildGroups() error {
	type edge struct {
		op, stream string
	}
	subscribed := map[edge][]string{} // edge -> subscribed ops (All only)
	for _, id := range e.topo.Order {
		for _, s := range e.topo.Operators[id].Subs {
			if s.Type == AllGrouping {
				k := edge{s.SrcOperator, s.Stream}
				subscribed[k] = append(subscribed[k], id)
			}
		}
	}
	edges := make([]edge, 0, len(subscribed))
	for k := range subscribed {
		edges = append(edges, k)
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].op != edges[j].op {
			return edges[i].op < edges[j].op
		}
		return edges[i].stream < edges[j].stream
	})

	for _, k := range edges {
		dstOps := subscribed[k]
		// Local subscribed tasks per worker.
		localTasks := map[int32][]int32{}
		memberSet := map[int32]bool{}
		for _, op := range dstOps {
			for _, tid := range e.assign.TasksOf[op] {
				w := e.assign.WorkerOf[tid]
				localTasks[w] = append(localTasks[w], tid)
				memberSet[w] = true
			}
		}
		for _, srcWorker := range e.assign.WorkersOf(k.op) {
			members := make([]int32, 0, len(memberSet))
			for w := range memberSet {
				if w != srcWorker {
					members = append(members, w)
				}
			}
			sort.Slice(members, func(i, j int) bool { return members[i] < members[j] })
			if len(members) == 0 {
				continue // purely local group; the fast path covers it
			}
			gid := int32(len(e.groupDescs))
			desc := &groupDesc{
				id:      gid,
				key:     groupKey{op: k.op, stream: k.stream, worker: srcWorker},
				dstOps:  append([]string(nil), dstOps...),
				members: members,
			}
			desc.lt.Store(&localTasks)
			e.groupDescs = append(e.groupDescs, desc)
			e.groupIDs[desc.key] = gid

			// Build and install the initial tree — on every worker, dormant
			// ones included: a later join extends the tree to a worker that
			// already knows the group, so membership growth is just another
			// CtrlTree version, never a missing-group decode error.
			dstar := e.initialDstar(len(members))
			var tr *multicast.Tree
			if e.cfg.Multicast == MulticastBinomial {
				tr = multicast.BuildBinomial(srcWorker, members)
			} else {
				tr = multicast.BuildNonBlocking(srcWorker, members, dstar)
			}
			for _, w := range e.workers {
				w.groups[gid] = newGroupTrees(1, tr)
			}
			e.obs.Events.Append(obs.Event{
				Kind: obs.EventTreeRebuild, Group: gid, Worker: srcWorker,
				Version: 1, NewDstar: dstar,
				Detail: fmt.Sprintf("initial %s tree over %d members", e.cfg.Multicast, len(members)),
			})

			// Every tree group gets a manager: it owns the membership and
			// version sequence, and repairs the tree after a confirmed
			// worker failure. The adaptive §3.3 controller (monitor loop)
			// runs only for non-fixed non-blocking trees.
			adaptive := e.cfg.Multicast == MulticastNonBlocking && !e.cfg.FixedDstar
			mgr := &mcManager{
				eng:         e,
				desc:        desc,
				w:           e.workers[srcWorker],
				adaptive:    adaptive,
				members:     append([]int32(nil), members...),
				nextVersion: 2,
				curDstar:    dstar,
			}
			if adaptive {
				ctl := e.cfg.Control
				ctl.MaxDstar = queueing.BinomialSourceDegree(len(members))
				if ctl.MaxDstar < 1 {
					ctl.MaxDstar = 1
				}
				mgr.ctrl = control.NewController(ctl, dstar)
				for _, tid := range e.assign.TasksOnWorker(k.op, srcWorker) {
					if _, taken := e.taskMgr[tid]; !taken {
						e.taskMgr[tid] = mgr
					}
				}
			}
			e.managers[gid] = mgr
		}
	}
	return nil
}

func (e *Engine) initialDstar(n int) int {
	d := e.cfg.InitialDstar
	if b := queueing.BinomialSourceDegree(n); d > b && b >= 1 {
		d = b
	}
	if d < 1 {
		d = 1
	}
	return d
}

// groupOf resolves the multicast group for an emit.
func (e *Engine) groupOf(op, stream string, worker int32) (int32, bool) {
	gid, ok := e.groupIDs[groupKey{op: op, stream: stream, worker: worker}]
	return gid, ok
}

// groupLocalTasks returns the subscribed tasks of group gid on worker w
// under the group's live membership view.
func (e *Engine) groupLocalTasks(gid int32, w int32) []int32 {
	if int(gid) >= len(e.groupDescs) {
		return nil
	}
	return (*e.groupDescs[gid].lt.Load())[w]
}

// managerForTask returns the adaptive manager fed by the given source task.
func (e *Engine) managerForTask(tid int32) *mcManager { return e.taskMgr[tid] }

// Metrics returns the engine's aggregated metrics.
func (e *Engine) Metrics() *Metrics { return e.metrics }

// Obs returns the engine's observability scope.
func (e *Engine) Obs() *obs.Scope { return e.obs }

// mergedOpStats folds one operator's per-executor shares into a snapshot.
func mergedOpStats(shares []*opMetrics) OperatorStats {
	var out OperatorStats
	var merged metrics.Histogram
	for _, m := range shares {
		out.Executed += m.executed.Value()
		out.Emitted += m.emitted.Value()
		merged.Merge(&m.execNS)
	}
	out.ExecLatency = merged.Snapshot()
	return out
}

// addOpShare registers one executor's metrics share. Called at Start and
// when a rescale creates executors (on the monitor loop), concurrently with
// stats readers: the map and the operator's share list are copied, never
// appended to in place.
func (e *Engine) addOpShare(op string, m *opMetrics) {
	next := maps.Clone(*e.opStats.Load())
	next[op] = append(slices.Clip(next[op]), m)
	e.opStats.Store(&next)
}

// opShares returns one operator's current share list.
func (e *Engine) opShares(op string) []*opMetrics { return (*e.opStats.Load())[op] }

// OperatorStats snapshots per-operator counters (user operators only; the
// internal acker is excluded). Each executor keeps its own share; the
// snapshot merges them.
func (e *Engine) OperatorStats() map[string]OperatorStats {
	ops := *e.opStats.Load()
	out := make(map[string]OperatorStats, len(ops))
	for id, shares := range ops {
		if id == ackerOperatorID {
			continue
		}
		out[id] = mergedOpStats(shares)
	}
	return out
}

// registerObs publishes every engine-level series into the observability
// registry under hierarchical names: dsps.* (tuple counters and end-to-end
// latencies), multicast.* (tree and switch state), op.<id>.* (per-operator,
// merged across executors) and worker.<n>.* (queue depth plus the RDMA
// channel counters when the transport exposes them).
func (e *Engine) registerObs() {
	r := e.obs.Reg
	m := e.metrics
	r.CounterFunc("dsps.tuples_emitted", m.TuplesEmitted.Value)
	r.CounterFunc("dsps.tuples_executed", m.TuplesExecuted.Value)
	r.CounterFunc("dsps.tuples_completed", m.TuplesCompleted.Value)
	r.CounterFunc("dsps.tuples_acked", m.TuplesAcked.Value)
	r.CounterFunc("dsps.tuples_failed", m.TuplesFailed.Value)
	r.CounterFunc("dsps.route_errors", m.RouteErrors.Value)
	r.CounterFunc("dsps.send_errors", m.SendErrors.Value)
	r.CounterFunc("dsps.send_retries", m.SendRetries.Value)
	r.CounterFunc("dsps.sends_suppressed", m.SendsSuppressed.Value)
	r.CounterFunc("dsps.worker_failures", m.WorkerFailures.Value)
	r.CounterFunc("dsps.decode_errors", m.DecodeErrors.Value)
	r.CounterFunc("dsps.serializations", m.Serializations.Value)
	r.CounterFunc("dsps.serialization_ns", m.SerializationNS.Value)
	r.CounterFunc("dsps.credits_waited", m.CreditsWaited.Value)
	r.CounterFunc("dsps.credit_wait_ns", m.CreditWaitNS.Value)
	r.CounterFunc("dsps.credit_timeouts", m.CreditTimeouts.Value)
	r.CounterFunc("dsps.credit_grants", m.CreditGrants.Value)
	r.CounterFunc("dsps.tuples_shed", m.TuplesShed.Value)
	r.CounterFunc("dsps.link_paused", m.LinkPauses.Value)
	r.CounterFunc("dsps.drain_timeouts", m.DrainTimeouts.Value)
	r.CounterFunc("dsps.replay_ns", m.ReplayNS.Value)
	r.CounterFunc("dsps.exec_queue_wait_ns", m.ExecQueueWaitNS.Value)
	r.CounterFunc("snapshot.epochs_completed", m.EpochsCompleted.Value)
	r.CounterFunc("snapshot.epochs_aborted", m.EpochsAborted.Value)
	r.CounterFunc("snapshot.tuples_fenced", m.TuplesFenced.Value)
	r.CounterFunc("snapshot.align_buffered", m.AlignBuffered.Value)
	r.CounterFunc("snapshot.align_wait_ns", m.AlignWaitNS.Value)
	r.CounterFunc("snapshot.restores", m.Restores.Value)
	r.CounterFunc("snapshot.errors", m.SnapshotErrors.Value)
	r.CounterFunc("multicast.switches", m.Switches.Value)
	r.CounterFunc("multicast.switches_skipped", m.SkippedSwitches.Value)
	r.HistogramFunc("dsps.processing_latency_ns", m.ProcessingLatency.Snapshot)
	r.HistogramFunc("dsps.complete_latency_ns", m.CompleteLatency.Snapshot)
	r.HistogramFunc("snapshot.epoch_latency_ns", m.EpochLatency.Snapshot)
	r.HistogramFunc("multicast.latency_ns", m.MulticastLatency.Snapshot)
	r.HistogramFunc("multicast.switch_latency_ns", m.SwitchLatency.Snapshot)
	r.GaugeFunc("multicast.groups", func() int64 { return int64(len(e.groupDescs)) })
	r.GaugeFunc("multicast.active_dstar", func() int64 { return int64(e.ActiveDstar()) })
	if e.scaler != nil {
		e.scaler.registerObs()
	}

	for id := range *e.opStats.Load() {
		if id == ackerOperatorID {
			continue
		}
		// Re-read the share list per sample: a rescale appends shares for
		// the executors it creates, and the series must keep counting them.
		id := id
		r.CounterFunc(fmt.Sprintf("op.%s.executed", id), func() int64 {
			var n int64
			for _, s := range e.opShares(id) {
				n += s.executed.Value()
			}
			return n
		})
		r.CounterFunc(fmt.Sprintf("op.%s.emitted", id), func() int64 {
			var n int64
			for _, s := range e.opShares(id) {
				n += s.emitted.Value()
			}
			return n
		})
		r.HistogramFunc(fmt.Sprintf("op.%s.exec_latency_ns", id), func() metrics.Snapshot {
			return mergedOpStats(e.opShares(id)).ExecLatency
		})
	}

	for _, w := range e.workers {
		w := w
		prefix := fmt.Sprintf("worker.%d", w.id)
		r.GaugeFunc(prefix+".transfer_queue_len", func() int64 { return int64(len(w.transfer)) })
		r.CounterFunc(prefix+".transport.send_errs", func() int64 { return w.tr.Stats().SendErrs.Load() })
		if occ, ok := w.tr.(interface{ RingOccupancy() int }); ok {
			r.GaugeFunc(prefix+".rdma.ring_occupancy", func() int64 { return int64(occ.RingOccupancy()) })
		}
		if cs, ok := w.tr.(interface{ ChannelStats() rdma.StatsSnapshot }); ok {
			r.CounterFunc(prefix+".rdma.msgs_sent", func() int64 { return cs.ChannelStats().MsgsSent })
			r.CounterFunc(prefix+".rdma.bytes_sent", func() int64 { return cs.ChannelStats().BytesSent })
			r.CounterFunc(prefix+".rdma.work_requests", func() int64 { return cs.ChannelStats().WorkRequests })
			// size_flushes counts every batch the sender closed itself — full
			// (MMS) or shipped because the link was free; idle_flushes is
			// the link-free part on its own.
			r.CounterFunc(prefix+".rdma.size_flushes", func() int64 {
				s := cs.ChannelStats()
				return s.SizeFlushes + s.IdleFlushes
			})
			r.CounterFunc(prefix+".rdma.idle_flushes", func() int64 { return cs.ChannelStats().IdleFlushes })
			r.CounterFunc(prefix+".rdma.ring_wait_ns", func() int64 { return cs.ChannelStats().BlockedNS })
			r.CounterFunc(prefix+".rdma.cq_poll_ns", func() int64 { return cs.ChannelStats().CQPollNS })
			r.CounterFunc(prefix+".rdma.cq_polls", func() int64 { return cs.ChannelStats().CQPolls })
			r.CounterFunc(prefix+".rdma.wr_depth_sum", func() int64 { return cs.ChannelStats().WRDepthSum })
			r.CounterFunc(prefix+".rdma.wr_flushes", func() int64 { return cs.ChannelStats().WRFlushes })
		}
	}
}

// TransportSnapshot sums transport counters across workers.
func (e *Engine) TransportSnapshot() transport.Snapshot {
	var agg transport.Snapshot
	for _, w := range e.workers {
		s := w.tr.Stats().Load()
		agg.MsgsSent += s.MsgsSent
		agg.BytesSent += s.BytesSent
		agg.MsgsRecv += s.MsgsRecv
		agg.BytesRecv += s.BytesRecv
		agg.SendNS += s.SendNS
		agg.SendErrs += s.SendErrs
	}
	return agg
}

// ActiveDstar reports the current out-degree cap of the first adaptive
// multicast group, or 0 if none exists.
func (e *Engine) ActiveDstar() int {
	d := 0
	e.mon.read(func() {
		for _, desc := range e.groupDescs {
			if mgr := e.managers[desc.id]; mgr.adaptive {
				d = mgr.curDstar
				return
			}
		}
	})
	return d
}

// StopSpouts signals every spout loop to finish and waits for them.
func (e *Engine) StopSpouts() {
	e.stopSpoutsOnce.Do(func() { close(e.stopSpouts) })
	e.spoutWG.Wait()
}

// WaitSpouts blocks until every spout has finished of its own accord
// (returned false from Next). Use with finite sources.
func (e *Engine) WaitSpouts() { e.spoutWG.Wait() }

// Drain waits (bounded by timeout) until the engine is quiescent: all
// transfer and executor queues empty and tuple counters stable. It returns
// true on quiescence.
func (e *Engine) Drain(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	var prevEmitted, prevExecuted int64 = -1, -1
	stable := 0
	for time.Now().Before(deadline) {
		for _, w := range e.workers {
			if err := w.tr.Flush(); err != nil {
				e.metrics.SendErrors.Inc()
			}
		}
		empty := true
		for _, w := range e.workers {
			if len(w.transfer) > 0 {
				empty = false
				break
			}
			if w.fc.queued() > 0 {
				empty = false
				break
			}
			if w.staged.len() > 0 {
				empty = false
				break
			}
			for _, ex := range w.execMap() {
				if ex.queueLen() > 0 || ex.alignParkedLen() > 0 {
					empty = false
					break
				}
			}
		}
		em, ex := e.metrics.TuplesEmitted.Value(), e.metrics.TuplesExecuted.Value()
		if empty && em == prevEmitted && ex == prevExecuted {
			stable++
			if stable >= 3 {
				return true
			}
		} else {
			stable = 0
		}
		prevEmitted, prevExecuted = em, ex
		time.Sleep(2 * time.Millisecond)
	}
	return false
}

// Stop shuts the engine down: spouts first, then a bounded drain, then the
// monitor loop and tickers, bolts, flow links and the network. Closing
// e.stopping first bounds shutdown latency: send-retry backoffs and credit
// waits abort instead of running out their schedules, so the drain flushes
// what it can within DrainTimeout and a drain that still misses is reported
// rather than silently ignored.
func (e *Engine) Stop() {
	if !e.stopped.CompareAndSwap(false, true) {
		return
	}
	close(e.stopping)
	e.StopSpouts()
	if !e.Drain(e.cfg.DrainTimeout) {
		e.metrics.DrainTimeouts.Inc()
		e.obs.Events.Append(obs.Event{
			Kind:   obs.EventDrainTimeout,
			Detail: fmt.Sprintf("engine stopped before quiescing within %v; in-flight tuples may be lost", e.cfg.DrainTimeout),
		})
	}
	close(e.stopTick)
	e.auxWG.Wait()
	for _, w := range e.workers {
		close(w.done)
	}
	for _, w := range e.workers {
		w.wg.Wait()
		w.sendWG.Wait()
	}
	// Flow links drain after the send loops stop feeding them; credit
	// waits were already released by e.stopping.
	for _, w := range e.workers {
		w.fc.close()
	}
	// Best-effort teardown: workers are already joined, so a close error
	// here has no one left to act on it.
	_ = e.cfg.Network.Close()
}

// StreamTick is the stream name of engine-generated tick tuples (see
// BoltDeclarer.TickEvery). Bolts receive them in Execute like any input.
const StreamTick = "__tick"

// userTicker delivers tick tuples to one operator's executors at its
// configured period until the engine stops, never waiting on a stalled one.
func (e *Engine) userTicker(op string, interval time.Duration) {
	defer e.auxWG.Done()
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-e.stopTick:
			return
		case <-ticker.C:
			now := time.Now().UnixNano()
			tv := e.tv()
			for _, tid := range tv.assign.TasksOf[op] {
				w := e.workers[tv.assign.WorkerOf[tid]]
				ex, ok := w.execMap()[tid]
				if !ok {
					continue
				}
				ex.put(tuple.AddressedTuple{TaskID: tid, Src: tuple.LocalSrc,
					Data: &tuple.Tuple{Stream: StreamTick, RootEmitNS: now}})
			}
		}
	}
}

// ackTicker periodically injects timeout-sweep ticks into every acker task.
func (e *Engine) ackTicker() {
	defer e.auxWG.Done()
	interval := e.cfg.AckTimeout / 4
	if interval < 10*time.Millisecond {
		interval = 10 * time.Millisecond
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-e.stopTick:
			return
		case <-ticker.C:
			tv := e.tv()
			for _, tid := range tv.assign.TasksOf[ackerOperatorID] {
				w := e.workers[tv.assign.WorkerOf[tid]]
				ex, ok := w.execMap()[tid]
				if !ok {
					continue
				}
				ex.put(tuple.AddressedTuple{TaskID: tid, Src: tuple.LocalSrc,
					Data: &tuple.Tuple{Stream: streamAckTick}})
			}
		}
	}
}

// mcManager is one multicast group's §3.3-3.4 control plane: the d*
// controller, the membership and the tree-version ledger. It distributes new
// tree versions and activates each only after every member ACKs. All of its
// mutable state belongs to the monitor loop (DESIGN §16); the data plane
// reaches only adaptive and the two atomic monitors.
type mcManager struct {
	eng      *Engine
	desc     *groupDesc
	w        *worker
	adaptive bool // §3.3 controller enabled (ctrl is nil otherwise)
	sm       control.StreamMonitor
	qm       control.QueueMonitor

	// Loop-owned.
	ctrl           *control.Controller
	members        []int32 // live membership; starts as desc.members, shrinks on failure
	pendingVersion int32
	pendingAcks    map[int32]bool
	switchStart    time.Time
	nextVersion    int32
	curDstar       int
	pendingTree    *multicast.Tree
}

// tick is one controller round over the interval of sec seconds that ends
// now: feed the rate and t_e measured over it, then decide — unless a
// switch is still in flight, one at a time.
func (m *mcManager) tick(sec float64) {
	m.ctrl.ObserveRate(float64(m.sm.Drain()), sec)
	if te, ok := m.qm.DrainTe(); ok {
		m.ctrl.ObserveTe(te)
	}
	if m.pendingVersion != 0 {
		return
	}
	queueLen := len(m.w.transfer)
	m.maybeSwitch(m.ctrl.Evaluate(queueLen), queueLen)
}

// maybeSwitch acts on one controller decision: it applies the Theorem 5
// guard, rebuilds the tree, and distributes the new version. Factored out of
// tick so tests can drive decisions deterministically.
func (m *mcManager) maybeSwitch(dec control.Decision, queueLen int) {
	oldDstar, members := m.curDstar, m.members
	if dec.Action == control.Hold || dec.NewDstar == oldDstar {
		return
	}
	// Theorem 5 guard: an active scale-up only pays off if the stream
	// expected over the structure's likely lifetime amortizes the switch
	// pause. Scale-downs are never deferred (they protect the queue).
	if dec.Action == control.ScaleUp {
		tswitch := float64(m.eng.metrics.SwitchLatency.Mean()) / 1e9
		if tswitch <= 0 {
			tswitch = float64(len(members)) * 100e-6 // first-switch estimate
		}
		horizon := float64(100*m.eng.cfg.MonitorInterval) / float64(time.Second)
		if !control.ScaleUpWorthwhile(len(members), oldDstar, dec.NewDstar,
			dec.Te, dec.Lambda, tswitch, horizon) {
			m.eng.metrics.SkippedSwitches.Inc()
			m.ctrl.ForceDstar(oldDstar) // keep the controller honest
			m.eng.obs.Events.Append(obs.Event{
				Kind: obs.EventSwitchSkipped, Group: m.desc.id, Worker: m.w.id,
				OldDstar: oldDstar, NewDstar: dec.NewDstar,
				Lambda: dec.Lambda, Te: dec.Te, QueueLen: queueLen,
				Detail: "Theorem 5 guard: expected stream does not amortize the switch",
			})
			return
		}
	}
	cur, _, ok := m.w.groups[m.desc.id].Load().activeTree()
	if !ok {
		return
	}
	next := cur.Clone()
	dir, moves := multicast.Switch(next, oldDstar, dec.NewDstar)
	m.curDstar = dec.NewDstar
	if dir == multicast.NoSwitch || len(moves) == 0 {
		return
	}
	m.eng.metrics.Switches.Inc()
	kind, direction := obs.EventScaleUp, tuple.SwitchScaleUp
	if dec.Action == control.ScaleDown {
		kind = obs.EventScaleDown
	}
	if dir == multicast.ScaleDownSwitch {
		direction = tuple.SwitchScaleDown
	}
	m.distribute(next, members, direction,
		fmt.Sprintf("switch distributed to %d members", len(members)),
		obs.Event{
			Kind: kind, OldDstar: oldDstar, NewDstar: dec.NewDstar,
			Lambda: dec.Lambda, Te: dec.Te, QueueLen: queueLen,
			Detail: fmt.Sprintf("%d subtree moves", len(moves)),
		})
}

// distribute starts the §3.4 switch to tree next: it supersedes any switch
// still in flight, a fresh version opens an ack ledger over members, and
// the CtrlTree — carrying the full adjacency, each relay "stores the
// structure of the multicast tree" — goes to every member; handleAck
// activates the version when the last ack arrives. With no member left to
// coordinate with it activates locally. lead events are stamped with the
// version and logged ahead of the tree-rebuild event. Distribution may
// block on the transfer queue.
func (m *mcManager) distribute(next *multicast.Tree, members []int32, direction byte, detail string, lead ...obs.Event) {
	version := m.nextVersion
	m.nextVersion++
	m.pendingVersion, m.pendingTree, m.pendingAcks = 0, nil, nil
	if len(members) > 0 {
		m.pendingVersion = version
		m.pendingTree = next
		m.pendingAcks = make(map[int32]bool, len(members))
		for _, w := range members {
			m.pendingAcks[w] = false
		}
		m.switchStart = time.Now()
	}
	for _, ev := range append(lead, obs.Event{Kind: obs.EventTreeRebuild, NewDstar: m.curDstar, Detail: detail}) {
		ev.Group, ev.Worker, ev.Version = m.desc.id, m.w.id, version
		m.eng.obs.Events.Append(ev)
	}
	if len(members) == 0 {
		m.w.groups[m.desc.id].install(version, next)
		return
	}
	nodes, parents := next.Flatten()
	m.w.sendControl(&tuple.ControlMessage{
		Type: tuple.CtrlTree, Direction: direction,
		Group: m.desc.id, Version: version,
		Nodes: nodes, Parents: parents,
	}, members...)
}

// handleAck records one member's acknowledgement; when the last arrives the
// new version activates at the source.
func (m *mcManager) handleAck(version int32, node int32) {
	if version != m.pendingVersion {
		return
	}
	if done, ok := m.pendingAcks[node]; !ok || done {
		return
	}
	m.pendingAcks[node] = true
	for _, acked := range m.pendingAcks {
		if !acked {
			return
		}
	}
	m.w.groups[m.desc.id].install(version, m.pendingTree)
	m.eng.metrics.SwitchLatency.Observe(time.Since(m.switchStart).Nanoseconds())
	m.eng.obs.Events.Append(obs.Event{
		Kind: obs.EventSwitchComplete, Group: m.desc.id, Worker: m.w.id,
		Version: version, NewDstar: m.curDstar,
		Detail: fmt.Sprintf("all %d members acked; version %d active", len(m.pendingAcks), version),
	})
	m.pendingVersion = 0
	m.pendingTree = nil
	// Drop the ack ledger with the switch. Leaving it behind is a latent
	// leak with a sharp edge under churn: a member that leaves and later
	// rejoins under the same NodeID could ack a long-dead version and be
	// double-counted against a stale ledger.
	m.pendingAcks = nil
}

// applyMembership installs a new membership for the group: the live
// worker->tasks map is swapped (nil keeps it — a failure changes who is
// reachable, not who subscribes), the active tree is extended (AddNode,
// BFS-shallowest under the current d* cap) and/or pruned (RemoveNode) to
// the new member set, and the result is distributed as a fresh tree
// version. Runs on the monitor loop, on a rescale commit and on a confirmed
// worker failure. Dead workers are excluded from the target set — they can
// never ack.
func (m *mcManager) applyMembership(newLocal map[int32][]int32, newMembers []int32) {
	live := make([]int32, 0, len(newMembers))
	for _, w := range newMembers {
		if !m.eng.workerDead(w) {
			live = append(live, w)
		}
	}
	if newLocal != nil {
		m.desc.lt.Store(&newLocal)
	}

	old := m.members
	if slices.Equal(live, old) {
		return
	}
	m.members = live
	// Cancel any in-flight switch now: its ledger was built against the old
	// membership and a departing member would wedge it forever.
	m.pendingVersion, m.pendingTree, m.pendingAcks = 0, nil, nil
	dstar := m.curDstar

	cur, _, ok := m.w.groups[m.desc.id].Load().activeTree()
	if !ok {
		return
	}
	next := cur.Clone()
	oldSet := map[int32]bool{}
	for _, w := range old {
		oldSet[w] = true
	}
	liveSet := map[int32]bool{}
	for _, w := range live {
		liveSet[w] = true
	}
	for _, w := range old {
		if !liveSet[w] && next.Contains(w) {
			if err := next.RemoveNode(w, dstar); err != nil {
				return // source removal: cannot happen for members
			}
		}
	}
	for _, w := range live {
		if !oldSet[w] && !next.Contains(w) {
			if err := next.AddNode(w, dstar); err != nil {
				return
			}
		}
	}
	direction := tuple.SwitchScaleUp
	if len(live) < len(old) {
		direction = tuple.SwitchScaleDown
	}
	m.distribute(next, live, direction,
		fmt.Sprintf("membership change: %d -> %d members", len(old), len(live)))
}
