// Package core composes the engine, transports and multicast structures
// into the named systems the paper builds and evaluates (§5.1):
//
//	Storm            — instance-oriented communication over TCP
//	RDMAStorm        — instance-oriented over basic (two-sided) RDMA verbs
//	WhaleWOC         — + worker-oriented communication (paper §3.5)
//	WhaleWOCRDMA     — + optimized RDMA primitives: one-sided READ data
//	                   path, ring memory region, MMS slicing (paper §4)
//	WhaleSequential  — WhaleWOCRDMA with sequential (star) multicast, the
//	                   "sequential multicast" arm of Figs. 17-20
//	RDMC             — WhaleWOCRDMA with a static binomial multicast tree
//	Whale            — the full system: + self-adjusting non-blocking
//	                   multicast tree (paper §3.2-3.4)
//
// Every system is a (transport, engine-config) pair; benchmarks and the
// public API build clusters from these presets so ablations differ in
// exactly one mechanism at a time.
package core

import (
	"fmt"
	"sync/atomic"
	"time"

	"whale/internal/dsps"
	"whale/internal/obs"
	"whale/internal/rdma"
	"whale/internal/snapshot"
	"whale/internal/transport"
)

// System names one of the paper's evaluated systems.
type System int

const (
	// Storm is the stock Apache Storm baseline.
	Storm System = iota
	// RDMAStorm is Yang et al.'s RDMA-based Storm.
	RDMAStorm
	// WhaleWOC adds worker-oriented communication to RDMAStorm.
	WhaleWOC
	// WhaleWOCRDMA adds the optimized RDMA primitives to WhaleWOC.
	WhaleWOCRDMA
	// WhaleSequential is WhaleWOCRDMA with explicit star multicast (the
	// same data path; named for the Figs. 17-20 comparison).
	WhaleSequential
	// RDMC uses a static binomial multicast tree on WhaleWOCRDMA.
	RDMC
	// Whale is the full system with the self-adjusting non-blocking tree.
	Whale
)

// Systems lists all presets in evaluation order.
var Systems = []System{Storm, RDMAStorm, WhaleWOC, WhaleWOCRDMA, WhaleSequential, RDMC, Whale}

func (s System) String() string {
	switch s {
	case Storm:
		return "Storm"
	case RDMAStorm:
		return "RDMA-Storm"
	case WhaleWOC:
		return "Whale-WOC"
	case WhaleWOCRDMA:
		return "Whale-WOC-RDMA"
	case WhaleSequential:
		return "Whale-Sequential"
	case RDMC:
		return "RDMC"
	case Whale:
		return "Whale"
	}
	return fmt.Sprintf("system(%d)", int(s))
}

// TransportKind selects the wire.
type TransportKind int

const (
	// TransportAuto picks the system's canonical wire (TCP for Storm,
	// emulated RDMA for the rest).
	TransportAuto TransportKind = iota
	// TransportInproc uses Go channels (fast tests and examples).
	TransportInproc
	// TransportTCP uses real loopback TCP.
	TransportTCP
	// TransportRDMA uses the emulated RDMA fabric.
	TransportRDMA
)

// Options tunes a cluster independent of the chosen System. It carries the
// deployment, the paper's own parameters (MMS, d*, Δt) and the switches that
// turn a mechanism on; the engine's sizes, timeouts and retry counts keep
// the defaults dsps.Config fills in. Every field but Transport, MMS, ObsAddr
// and TraceSampleEvery is the dsps.Config field of the same name.
type Options struct {
	// Workers is the worker-process count (default 4).
	Workers int
	// MaxWorkers caps the cluster's elastic size: workers in
	// [Workers, MaxWorkers) start dormant and can be admitted later with
	// Cluster.JoinWorker (default: Workers — no elastic headroom).
	MaxWorkers int
	// Transport overrides the system's canonical wire.
	Transport TransportKind
	// ObsAddr, when non-empty, serves the observability endpoints
	// (/metrics, /debug/whale, /debug/events, /debug/pprof) on that
	// address (e.g. "127.0.0.1:9090"; ":0" picks a free port).
	ObsAddr string

	// MMS bounds Whale's stream slicing (default 256 KiB, the operating
	// point the paper selects in Fig. 11). A batch below it leaves as soon
	// as the link is free; the paper's wait-time limit is subsumed by that
	// rule and has no knob.
	MMS int
	// InitialDstar seeds the non-blocking tree (default 3).
	InitialDstar int
	// FixedDstar pins d*, disabling the §3.3 controller.
	FixedDstar bool
	// MonitorInterval is the controller Δt (default 10 ms).
	MonitorInterval time.Duration

	// AckEnabled turns on the Storm-style reliability plane (tracked
	// spout emissions, acker tasks, at-least-once sources).
	AckEnabled bool
	// MaxSpoutPending caps in-flight reliability trees per spout task.
	MaxSpoutPending int
	// HeartbeatInterval enables the failure detector: workers beacon
	// liveness to worker 0 at this period (0 disables detection).
	HeartbeatInterval time.Duration
	// CheckpointInterval enables aligned snapshot checkpointing (DESIGN
	// §13): epoch barriers at this period, operator state into
	// CheckpointStore, restore + source rewind after a confirmed failure
	// (0 disables).
	CheckpointInterval time.Duration
	// CheckpointStore persists per-epoch task snapshots (default:
	// in-memory; use snapshot.NewFileStore for a durable directory).
	CheckpointStore snapshot.Store
	// Autoscale enables the M/D/1-driven parallelism controller
	// (DESIGN §15): per-operator utilization-band decisions actuated
	// through Rescale. Requires CheckpointInterval > 0; the zero value
	// disables it.
	Autoscale dsps.AutoscaleConfig
	// ShedPolicy picks what a full link does with best-effort tuples:
	// block (default), shed newest, or shed oldest. Acked tuples always
	// block.
	ShedPolicy dsps.ShedPolicy
	// TraceSampleEvery enables tuple-path tracing: every Nth spout root
	// tuple carries a trace ID and records per-stage span timings
	// (0 disables tracing).
	TraceSampleEvery int64
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = 4
	}
	if o.MMS <= 0 {
		o.MMS = 256 << 10
	}
	return o
}

// basicRDMAConfig is the unoptimized verbs setup RDMA-Storm and Whale-WOC
// use: two-sided SEND/RECV, no meaningful batching (tiny MMS).
func basicRDMAConfig() rdma.ChannelConfig {
	return rdma.ChannelConfig{Mode: rdma.ModeTwoSided, MMS: 1 << 10}
}

// optimizedRDMAConfig is Whale's tuned data path: one-sided READ with the
// ring region, batches shipped whenever the link is free and bounded by
// MMS slicing (§4).
func optimizedRDMAConfig(o Options) rdma.ChannelConfig {
	return rdma.ChannelConfig{Mode: rdma.ModeOneSidedRead, MMS: o.MMS}
}

// flushWindow is how many flushes flushHook tallies before it names their
// dominant reason. Reasons interleave freely now that most batches leave
// because the link is free — a stranded batch here, a full one there — so a
// change between two consecutive flushes means nothing; a change of the
// majority over a thousand does.
const flushWindow = 1024

// flushHook counts every RDMA batch flush in the scope's registry by
// reason (rdma.flushes_mms / _idle / _explicit, plus rdma.flush_bytes) and
// logs an event whenever the dominant flush reason of a window of
// flushWindow flushes differs from the last window's — idle→mms says the
// links have filled up. rdma.flushes_explicit counts the link-was-free
// flushes as well as Flush and Close, so that mms + explicit stays the
// number of flushes rdma.flush_bytes is spread over; rdma.flushes_idle is
// that share on its own.
// The returned func is invoked serially per channel (one flush in flight
// at a time) with no channel lock held, but it still stays cheap: counter
// bumps and a rare ring append only.
func flushHook(scope *obs.Scope) func(rdma.FlushReason, int) {
	mms := scope.Reg.Counter("rdma.flushes_mms")
	explicit := scope.Reg.Counter("rdma.flushes_explicit")
	idle := scope.Reg.Counter("rdma.flushes_idle")
	bytes := scope.Reg.Counter("rdma.flush_bytes")
	var (
		total    atomic.Int64
		inWindow [rdma.FlushIdle + 1]atomic.Int64 // by reason
		last     atomic.Int32                     // dominant reason of the previous window
	)
	last.Store(-1)
	return func(reason rdma.FlushReason, batchBytes int) {
		switch reason {
		case rdma.FlushMMS:
			mms.Inc()
		case rdma.FlushIdle:
			idle.Inc()
			explicit.Inc()
		default:
			explicit.Inc()
		}
		bytes.Add(int64(batchBytes))
		if int(reason) < len(inWindow) {
			inWindow[reason].Add(1)
		}
		if total.Add(1)%flushWindow != 0 {
			return
		}
		// Whoever lands on the boundary tallies; flushes counted meanwhile
		// spill into the next window.
		dominant, most := int32(0), int64(-1)
		for r := range inWindow {
			if n := inWindow[r].Swap(0); n > most {
				dominant, most = int32(r), n
			}
		}
		if prev := last.Swap(dominant); prev != dominant && prev != -1 {
			scope.Events.Append(obs.Event{
				Kind:   obs.EventFlushReason,
				Detail: fmt.Sprintf("dominant flush reason %s -> %s", rdma.FlushReason(prev), rdma.FlushReason(dominant)),
			})
		}
	}
}

// network builds the system's wire, wiring RDMA flush observability into
// the scope.
func (s System) network(o Options, scope *obs.Scope) (transport.Network, error) {
	kind := o.Transport
	if kind == TransportAuto {
		if s == Storm {
			kind = TransportTCP
		} else {
			kind = TransportRDMA
		}
	}
	switch kind {
	case TransportInproc:
		return transport.NewInprocNetwork(0), nil
	case TransportTCP:
		return transport.NewTCPNetwork(), nil
	case TransportRDMA:
		cfg := optimizedRDMAConfig(o)
		if s == RDMAStorm || s == WhaleWOC {
			cfg = basicRDMAConfig()
		}
		cfg.OnFlush = flushHook(scope)
		return transport.NewRDMANetwork(rdma.CostModel{}, cfg), nil
	default:
		return nil, fmt.Errorf("core: unknown transport kind %d", kind)
	}
}

// EngineConfig assembles the dsps configuration (including the network and
// observability scope) for the system.
func (s System) EngineConfig(o Options) (dsps.Config, error) {
	o = o.withDefaults()
	scope := obs.NewScope(obs.Config{TraceSampleEvery: int(o.TraceSampleEvery)})
	net, err := s.network(o, scope)
	if err != nil {
		return dsps.Config{}, err
	}
	cfg := dsps.Config{
		Workers:            o.Workers,
		MaxWorkers:         o.MaxWorkers,
		Network:            net,
		MonitorInterval:    o.MonitorInterval,
		InitialDstar:       o.InitialDstar,
		FixedDstar:         o.FixedDstar,
		AckEnabled:         o.AckEnabled,
		MaxSpoutPending:    o.MaxSpoutPending,
		HeartbeatInterval:  o.HeartbeatInterval,
		CheckpointInterval: o.CheckpointInterval,
		CheckpointStore:    o.CheckpointStore,
		Autoscale:          o.Autoscale,
		ShedPolicy:         o.ShedPolicy,
		Obs:                scope,
	}
	switch s {
	case Storm, RDMAStorm:
		cfg.Comm = dsps.InstanceOriented
		cfg.Multicast = dsps.MulticastStar
	case WhaleWOC, WhaleWOCRDMA, WhaleSequential:
		cfg.Comm = dsps.WorkerOriented
		cfg.Multicast = dsps.MulticastStar
	case RDMC:
		cfg.Comm = dsps.WorkerOriented
		cfg.Multicast = dsps.MulticastBinomial
	case Whale:
		cfg.Comm = dsps.WorkerOriented
		cfg.Multicast = dsps.MulticastNonBlocking
	default:
		return dsps.Config{}, fmt.Errorf("core: unknown system %d", s)
	}
	return cfg, nil
}

// Launch starts a topology under the system's configuration.
func (s System) Launch(topo *dsps.Topology, o Options) (*dsps.Engine, error) {
	cfg, err := s.EngineConfig(o)
	if err != nil {
		return nil, err
	}
	return dsps.Start(topo, cfg)
}
