// Package whale is a Go reproduction of "Whale: Efficient One-to-Many Data
// Partitioning in RDMA-Assisted Distributed Stream Processing Systems"
// (SC '21): a Storm-like stream processing engine whose one-to-many (all
// grouping) data partitioning runs over worker-oriented communication, an
// emulated RDMA verbs transport with ring memory regions and MMS-bounded
// stream slicing, and a self-adjusting non-blocking multicast tree.
//
// The public API mirrors the Storm programming model: build a Topology of
// Spouts and Bolts with groupings, then Run it under one of the paper's
// System presets (Storm, RDMAStorm, WhaleWOC, WhaleWOCRDMA,
// WhaleSequential, RDMC, Whale).
//
//	builder := whale.NewTopologyBuilder()
//	builder.Spout("src", newSource, 1)
//	builder.Bolt("match", newMatcher, 16).All("src")
//	topo, _ := builder.Build()
//	cluster, _ := whale.Run(topo, whale.SystemWhale, whale.Options{Workers: 4})
//	defer cluster.Shutdown()
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// paper-reproduction results.
package whale

import (
	"encoding/json"
	"net/http"
	"time"

	"whale/internal/core"
	"whale/internal/dsps"
	"whale/internal/obs"
	"whale/internal/obs/attrib"
	"whale/internal/snapshot"
	"whale/internal/tuple"
)

// Data model re-exports.
type (
	// Tuple is the unit of data flowing through a topology.
	Tuple = tuple.Tuple
	// Value is one tuple field (int64, float64, string, []byte, or bool).
	Value = tuple.Value
)

// Programming model re-exports.
type (
	// Spout produces tuples (see dsps.Spout).
	Spout = dsps.Spout
	// Bolt processes tuples (see dsps.Bolt).
	Bolt = dsps.Bolt
	// Collector emits tuples from operator code.
	Collector = dsps.Collector
	// TaskContext describes the executing instance.
	TaskContext = dsps.TaskContext
	// TopologyBuilder assembles an application DAG.
	TopologyBuilder = dsps.TopologyBuilder
	// Topology is a validated application DAG.
	Topology = dsps.Topology
	// Metrics aggregates engine instrumentation.
	Metrics = dsps.Metrics
	// ShedPolicy selects overload behaviour for best-effort streams on a
	// full flow-controlled link (see Options.ShedPolicy).
	ShedPolicy = dsps.ShedPolicy
	// LinkStat is one flow-controlled link's snapshot.
	LinkStat = dsps.LinkStat
	// Snapshotter marks a stateful operator that participates in
	// checkpointing (enabled by Options.CheckpointInterval): its state is
	// captured per epoch and reinstalled on recovery.
	Snapshotter = snapshot.Snapshotter
	// SnapshotStore persists per-epoch operator snapshots
	// (Options.CheckpointStore).
	SnapshotStore = snapshot.Store
	// Sharder marks a Snapshotter whose state additionally splits into
	// key-range shards, letting a live rescale (Cluster.Rescale) split or
	// merge it across a changed instance count.
	Sharder = snapshot.Sharder
	// MembershipReport snapshots the elastic cluster: per-worker liveness,
	// operator placements, and multicast group membership. Served at
	// /debug/membership and returned by Cluster.Membership.
	MembershipReport = dsps.MembershipReport
	// AutoscaleConfig tunes the M/D/1-driven parallelism controller
	// (Options.Autoscale): utilization band, hysteresis, step and
	// parallelism clamps. Requires Options.CheckpointInterval.
	AutoscaleConfig = dsps.AutoscaleConfig
	// AutoscaleReport is the controller's introspection document: its
	// configuration plus the retained decisions with their model inputs.
	// Served at /debug/autoscale and returned by Cluster.AutoscaleReport.
	AutoscaleReport = dsps.AutoscaleReport
	// AutoscaleDecision is one controller evaluation of one operator.
	AutoscaleDecision = dsps.AutoscaleDecision
)

// NewMemSnapshotStore returns the in-memory snapshot store (the default
// when checkpointing is enabled; state survives worker failures within the
// process but not a process restart).
func NewMemSnapshotStore() SnapshotStore { return snapshot.NewMemStore() }

// NewFileSnapshotStore returns a durable directory-backed snapshot store.
func NewFileSnapshotStore(dir string) (SnapshotStore, error) { return snapshot.NewFileStore(dir) }

// Shed policies for Options.ShedPolicy. Acked (reliable) streams always
// block regardless of policy — they are never shed.
const (
	// ShedBlock blocks producers until link queue space frees (default).
	ShedBlock = dsps.ShedBlock
	// ShedNewest drops the arriving best-effort tuple when the link is full.
	ShedNewest = dsps.ShedNewest
	// ShedOldest evicts the oldest queued best-effort tuple to make room.
	ShedOldest = dsps.ShedOldest
)

// StreamTick is the stream of engine-generated tick tuples delivered to
// bolts declared with TickEvery (used by windowed operators to fire on
// time without traffic).
const StreamTick = dsps.StreamTick

// Autoscale decision actions (AutoscaleDecision.Action).
const (
	// AutoscaleHold: no action (in band, unconfirmed, clamped, cooling
	// down or backing off — the decision's Reason says which).
	AutoscaleHold = dsps.AutoscaleHold
	// AutoscaleUp / AutoscaleDown: a rescale was issued.
	AutoscaleUp   = dsps.AutoscaleUp
	AutoscaleDown = dsps.AutoscaleDown
	// AutoscaleRejected: the rescale plane refused the decision's plan.
	AutoscaleRejected = dsps.AutoscaleRejected
)

// NewTopologyBuilder returns an empty topology builder.
func NewTopologyBuilder() *TopologyBuilder { return dsps.NewTopologyBuilder() }

// NewTestCollector returns a detached collector for unit-testing operators.
func NewTestCollector(fn func(stream string, values []Value)) *Collector {
	return dsps.NewTestCollector(fn)
}

// System selects one of the paper's evaluated system configurations.
type System = core.System

// The paper's systems (§5.1).
const (
	// SystemStorm is stock Apache Storm: instance-oriented over TCP.
	SystemStorm = core.Storm
	// SystemRDMAStorm replaces TCP with basic two-sided verbs.
	SystemRDMAStorm = core.RDMAStorm
	// SystemWhaleWOC adds worker-oriented communication.
	SystemWhaleWOC = core.WhaleWOC
	// SystemWhaleWOCRDMA adds the optimized RDMA primitives (one-sided
	// READ, ring memory region, MMS slicing).
	SystemWhaleWOCRDMA = core.WhaleWOCRDMA
	// SystemWhaleSequential is WhaleWOCRDMA under star multicast.
	SystemWhaleSequential = core.WhaleSequential
	// SystemRDMC uses a static binomial multicast tree.
	SystemRDMC = core.RDMC
	// SystemWhale is the full system with the self-adjusting non-blocking
	// multicast tree.
	SystemWhale = core.Whale
)

// Options tunes a cluster (see core.Options).
type Options = core.Options

// Transport kinds for Options.Transport.
const (
	// TransportAuto picks the system's canonical wire.
	TransportAuto = core.TransportAuto
	// TransportInproc uses Go channels.
	TransportInproc = core.TransportInproc
	// TransportTCP uses loopback TCP.
	TransportTCP = core.TransportTCP
	// TransportRDMA uses the emulated RDMA fabric.
	TransportRDMA = core.TransportRDMA
)

// Cluster is a running topology.
type Cluster struct {
	eng *dsps.Engine
	srv *obs.Server
}

// Run launches the topology under the given system preset. With
// Options.ObsAddr set, the observability endpoints (/metrics,
// /debug/whale, /debug/events, /debug/trace, /debug/bottleneck,
// /debug/membership, /debug/pprof) are served on that address for the
// cluster's lifetime.
func Run(topo *Topology, sys System, opts Options) (*Cluster, error) {
	eng, err := sys.Launch(topo, opts)
	if err != nil {
		return nil, err
	}
	c := &Cluster{eng: eng}
	if opts.ObsAddr != "" {
		srv, err := obs.Serve(opts.ObsAddr, eng.Obs())
		if err != nil {
			eng.Stop()
			return nil, err
		}
		srv.Handle("/debug/bottleneck", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			rep := c.BottleneckReport()
			if r.URL.Query().Get("format") == "text" {
				w.Header().Set("Content-Type", "text/plain; charset=utf-8")
				_, _ = w.Write([]byte(rep.String()))
				return
			}
			w.Header().Set("Content-Type", "application/json")
			_ = json.NewEncoder(w).Encode(rep)
		}))
		srv.Handle("/debug/membership", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			_ = json.NewEncoder(w).Encode(c.Membership())
		}))
		srv.Handle("/debug/autoscale", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			_ = json.NewEncoder(w).Encode(c.AutoscaleReport())
		}))
		c.srv = srv
	}
	return c, nil
}

// Metrics returns live engine metrics.
func (c *Cluster) Metrics() *Metrics { return c.eng.Metrics() }

// Obs returns the cluster's observability scope: the metric registry,
// tuple-path tracer, and reconfiguration event log.
func (c *Cluster) Obs() *obs.Scope { return c.eng.Obs() }

// ObsAddr returns the address the observability server is listening on, or
// "" when Options.ObsAddr was unset.
func (c *Cluster) ObsAddr() string {
	if c.srv == nil {
		return ""
	}
	return c.srv.Addr()
}

// OperatorStats snapshots per-operator executed/emitted counters and
// execute-latency histograms.
func (c *Cluster) OperatorStats() map[string]dsps.OperatorStats {
	return c.eng.OperatorStats()
}

// WaitSources blocks until every spout finishes of its own accord.
func (c *Cluster) WaitSources() { c.eng.WaitSpouts() }

// StopSources signals spouts to finish and waits for them.
func (c *Cluster) StopSources() { c.eng.StopSpouts() }

// Drain waits (bounded) for in-flight tuples to finish; true on quiescence.
func (c *Cluster) Drain(timeout time.Duration) bool { return c.eng.Drain(timeout) }

// ActiveDstar reports the adaptive multicast tree's current out-degree cap
// (0 when no adaptive group exists).
func (c *Cluster) ActiveDstar() int { return c.eng.ActiveDstar() }

// LinkStats snapshots every link; all of them are flow-controlled.
func (c *Cluster) LinkStats() []LinkStat { return c.eng.LinkStats() }

// BottleneckReport folds the cluster's stall and utilization counters into
// a ranked bottleneck attribution (see internal/obs/attrib). Also served
// as JSON at /debug/bottleneck when Options.ObsAddr is set.
func (c *Cluster) BottleneckReport() attrib.Report { return c.eng.BottleneckReport() }

// DegradedWorkers lists workers currently reported degraded by the
// overload path (a subscriber paused past dsps.Config.DegradedAfter).
func (c *Cluster) DegradedWorkers() []int32 { return c.eng.DegradedWorkers() }

// JoinWorker admits a dormant worker id in [Options.Workers,
// Options.MaxWorkers) into the live membership through the
// CtrlJoin/CtrlWelcome handshake with the monitor. Once joined, the worker
// heartbeats, relays multicast traffic, and is a valid Rescale placement
// target.
func (c *Cluster) JoinWorker(id int32) error { return c.eng.JoinWorker(id) }

// LeaveWorker gracefully retires a joined worker that hosts no tasks
// (shrink its operators away first with Rescale). Unlike a confirmed
// failure, leaving is not terminal: the same id may rejoin later.
func (c *Cluster) LeaveWorker(id int32) error { return c.eng.LeaveWorker(id) }

// Rescale changes a live operator's parallelism through a rescale-aligned
// checkpoint (requires Options.CheckpointInterval): state splits or merges
// across the new instance set — by key-range shard for Sharder operators —
// sources rewind to the cut, and exactly-once holds across the transition.
// Optional placements pin each added task to a joined worker; by default
// the least-loaded joined workers are picked. A failure mid-rescale rolls
// the plan back to the pre-rescale topology.
func (c *Cluster) Rescale(op string, newPar int, on ...int32) error {
	return c.eng.Rescale(op, newPar, on...)
}

// Membership reports the elastic cluster state: every worker slot's
// liveness, operator placements, and per-group multicast membership. Also
// served as JSON at /debug/membership when Options.ObsAddr is set.
func (c *Cluster) Membership() MembershipReport { return c.eng.Membership() }

// AutoscaleReport snapshots the autoscale controller: its configuration
// and the last decisions with the model inputs (λ, t_e, ρ, queue depths)
// that drove them. Empty with Options.Autoscale disabled. Also served as
// JSON at /debug/autoscale when Options.ObsAddr is set.
func (c *Cluster) AutoscaleReport() AutoscaleReport { return c.eng.AutoscaleReport() }

// Shutdown stops the cluster and releases the network and the
// observability server.
func (c *Cluster) Shutdown() {
	c.eng.Stop()
	if c.srv != nil {
		c.srv.Close()
	}
}
