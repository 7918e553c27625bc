package dsps

import (
	"fmt"
	"sort"
	"time"

	"whale/internal/metrics"
	"whale/internal/obs"
	"whale/internal/queueing"
)

// Autoscaling closes the loop between the M/D/1 performance model and the
// rescale plane (DESIGN §15): a controller on the monitor worker
// periodically folds the per-operator obs counters and the attrib
// bottleneck report into load estimates, sizes each operator with the
// queueing model, and issues Engine.Rescale through the armed-plan
// machinery. The controller never touches the data hot path — it reads the
// same merged per-executor counters the op.<id>.* registry series serve,
// on the monitor loop (monitor.go), at Interval granularity; with Interval
// zero the engine carries no autoscale state at all.

// AutoscaleConfig parameterises the controller. The zero value disables
// autoscaling entirely.
type AutoscaleConfig struct {
	// Interval is the controller period; 0 disables autoscaling.
	// Autoscaling requires checkpointing (rescale rides aligned cuts).
	Interval time.Duration
	// RhoHigh is the per-instance utilization above which an operator is
	// a scale-up candidate (default 0.8).
	RhoHigh float64
	// RhoLow is the utilization below which an operator is a scale-down
	// candidate (default 0.3).
	RhoLow float64
	// Cooldown is the minimum time between actions on one operator
	// (default 10×Interval). It also seeds the backoff applied after an
	// aborted or rejected plan, which doubles per consecutive failure.
	Cooldown time.Duration
	// MaxStep bounds how far one decision may move an operator's
	// parallelism (default 4).
	MaxStep int
	// Confirm is how many consecutive out-of-band observations must
	// accumulate before the controller acts (default 2) — one noisy
	// interval never triggers a rescale.
	Confirm int
	// MinParallelism / MaxParallelism clamp every operator's target
	// (defaults 1 / NumSlots). Fields-grouped operators are additionally
	// clamped to NumSlots regardless of MaxParallelism: slot routing
	// starves task indices beyond the slot-space width.
	MinParallelism int
	MaxParallelism int
}

func (c AutoscaleConfig) withDefaults() AutoscaleConfig {
	if c.Interval <= 0 {
		return c
	}
	if c.RhoHigh <= 0 || c.RhoHigh >= 1 {
		c.RhoHigh = 0.8
	}
	if c.RhoLow <= 0 || c.RhoLow >= c.RhoHigh {
		c.RhoLow = 0.3
		if c.RhoLow >= c.RhoHigh {
			c.RhoLow = c.RhoHigh / 2
		}
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 10 * c.Interval
	}
	if c.MaxStep <= 0 {
		c.MaxStep = 4
	}
	if c.Confirm <= 0 {
		c.Confirm = 2
	}
	if c.MinParallelism <= 0 {
		c.MinParallelism = 1
	}
	if c.MaxParallelism <= 0 {
		c.MaxParallelism = NumSlots
	}
	if c.MaxParallelism < c.MinParallelism {
		c.MaxParallelism = c.MinParallelism
	}
	return c
}

// rhoTarget is the band point the model sizes toward: the middle of the
// band, so a fresh action lands with slack on both sides and does not
// immediately re-trigger in either direction.
func (c AutoscaleConfig) rhoTarget() float64 { return (c.RhoHigh + c.RhoLow) / 2 }

// Autoscale decision actions.
const (
	// AutoscaleHold: no action this tick (in band, streak still building,
	// clamped, cooling down, or backing off — see Reason).
	AutoscaleHold = "hold"
	// AutoscaleUp / AutoscaleDown: a rescale was issued.
	AutoscaleUp   = "scale-up"
	AutoscaleDown = "scale-down"
	// AutoscaleRejected: the controller decided to act but the rescale
	// plane refused (plan already in flight, recovery in progress, ...);
	// the operator backs off before retrying.
	AutoscaleRejected = "rejected"
)

// AutoscaleDecision is one controller evaluation of one operator, with the
// model inputs that drove it. The last N decisions are served at
// /debug/autoscale and returned by Engine.AutoscaleReport.
type AutoscaleDecision struct {
	TimeNS   int64  `json:"time_ns"`
	Operator string `json:"operator"`
	Action   string `json:"action"`
	Reason   string `json:"reason"`
	From     int    `json:"from"`
	To       int    `json:"to"`
	// Lambda is the operator's measured arrival rate over the interval
	// (tuples/s, all instances); Te the mean per-tuple execute seconds;
	// Rho the resulting per-instance utilization λ·te/par.
	Lambda float64 `json:"lambda"`
	Te     float64 `json:"te"`
	Rho    float64 `json:"rho"`
	// QueueLen is the operator's queued-tuple depth at evaluation time;
	// PredictedQueue the M/D/1 mean queue length at the measured load.
	QueueLen       int     `json:"queue_len"`
	PredictedQueue float64 `json:"predicted_queue"`
	// Bottleneck names the attrib report's top-ranked component at
	// decision time — the cluster-wide context the estimate was made in.
	Bottleneck string `json:"bottleneck,omitempty"`
}

// opObservation is one tick's measurement of one operator.
type opObservation struct {
	NowNS    int64
	Lambda   float64 // arrival rate over the interval, tuples/s
	Te       float64 // mean execute seconds per tuple (0: no samples)
	Par      int     // current parallelism
	MaxPar   int     // effective upper clamp (NumSlots when fields-grouped)
	QueueLen int
}

// opScaleState is the controller's per-operator hysteresis memory.
type opScaleState struct {
	highStreak   int
	lowStreak    int
	lastActionNS int64
	// backoff state after an aborted or rejected plan: no action for the
	// operator until backoffUntilNS; backoff doubles per consecutive
	// failure (capped) and resets when an action is accepted again.
	backoff        time.Duration
	backoffUntilNS int64
	lastTe         float64 // remembered te so idle intervals can size down
}

// noteFailure applies (and escalates) the post-abort backoff.
func (s *opScaleState) noteFailure(nowNS int64, cooldown time.Duration) {
	if s.backoff < cooldown {
		s.backoff = cooldown
	} else {
		s.backoff *= 2
		if max := 8 * cooldown; s.backoff > max {
			s.backoff = max
		}
	}
	s.backoffUntilNS = nowNS + s.backoff.Nanoseconds()
	s.highStreak, s.lowStreak = 0, 0
}

// decide runs one controller evaluation: band classification with
// consecutive-observation confirmation, M/D/1 target sizing, the
// MaxStep/min/max/slot clamps, and cooldown/backoff suppression. Pure over
// (observation, state, config) — no engine access — so the decision table
// is unit-testable; it mutates only the hysteresis state.
func (s *opScaleState) decide(op string, o opObservation, cfg AutoscaleConfig) AutoscaleDecision {
	d := AutoscaleDecision{
		TimeNS: o.NowNS, Operator: op, Action: AutoscaleHold,
		From: o.Par, To: o.Par,
		Lambda: o.Lambda, Te: o.Te, QueueLen: o.QueueLen,
	}
	te := o.Te
	if te <= 0 {
		// No execute samples this interval (idle operator): size with the
		// last known service time so sustained idleness still scales down.
		te = s.lastTe
	}
	if te <= 0 {
		d.Reason = "no service-time sample yet"
		s.highStreak, s.lowStreak = 0, 0
		return d
	}
	s.lastTe = te
	d.Te = te
	d.Rho = queueing.UtilizationN(o.Lambda, te, o.Par)
	d.PredictedQueue = queueing.QueueLengthN(o.Lambda, te, o.Par)
	switch {
	case d.Rho > cfg.RhoHigh:
		s.highStreak++
		s.lowStreak = 0
	case d.Rho < cfg.RhoLow:
		s.lowStreak++
		s.highStreak = 0
	default:
		s.highStreak, s.lowStreak = 0, 0
		d.Reason = fmt.Sprintf("rho %.2f within [%.2f, %.2f]", d.Rho, cfg.RhoLow, cfg.RhoHigh)
		return d
	}
	if s.highStreak > 0 && s.highStreak < cfg.Confirm {
		d.Reason = fmt.Sprintf("rho %.2f > %.2f, confirmation %d/%d", d.Rho, cfg.RhoHigh, s.highStreak, cfg.Confirm)
		return d
	}
	if s.lowStreak > 0 && s.lowStreak < cfg.Confirm {
		d.Reason = fmt.Sprintf("rho %.2f < %.2f, confirmation %d/%d", d.Rho, cfg.RhoLow, s.lowStreak, cfg.Confirm)
		return d
	}

	// Confirmed out of band: size to the middle of the band and clamp.
	target := queueing.InstancesForRho(o.Lambda, te, cfg.rhoTarget())
	if s.highStreak >= cfg.Confirm && target <= o.Par {
		// Saturated measurement (λ capped at service capacity) can size at
		// or below the current count; overload still must add capacity.
		target = o.Par + 1
	}
	if s.lowStreak >= cfg.Confirm && target >= o.Par {
		target = o.Par - 1
	}
	if target > o.Par+cfg.MaxStep {
		target = o.Par + cfg.MaxStep
	}
	if target < o.Par-cfg.MaxStep {
		target = o.Par - cfg.MaxStep
	}
	maxPar := cfg.MaxParallelism
	if o.MaxPar > 0 && o.MaxPar < maxPar {
		maxPar = o.MaxPar
	}
	if target > maxPar {
		target = maxPar
	}
	if target < cfg.MinParallelism {
		target = cfg.MinParallelism
	}
	if target == o.Par {
		d.Reason = fmt.Sprintf("rho %.2f out of band but target clamped at %d", d.Rho, o.Par)
		return d
	}
	if o.NowNS < s.backoffUntilNS {
		d.Reason = fmt.Sprintf("suppressed: backing off %v after a failed plan", s.backoff)
		return d
	}
	if s.lastActionNS != 0 && o.NowNS-s.lastActionNS < cfg.Cooldown.Nanoseconds() {
		d.Reason = "suppressed: cooldown since last action"
		return d
	}
	d.To = target
	if target > o.Par {
		d.Action = AutoscaleUp
		d.Reason = fmt.Sprintf("rho %.2f > %.2f for %d intervals", d.Rho, cfg.RhoHigh, s.highStreak)
	} else {
		d.Action = AutoscaleDown
		d.Reason = fmt.Sprintf("rho %.2f < %.2f for %d intervals", d.Rho, cfg.RhoLow, s.lowStreak)
	}
	return d
}

// autoscaleRingCap bounds the retained decision log (/debug/autoscale).
const autoscaleRingCap = 128

// autoscaler is the controller's state. The monitor loop owns all of it
// (the counters are atomics because the obs registry samples them).
type autoscaler struct {
	eng *Engine
	cfg AutoscaleConfig

	states    map[string]*opScaleState
	last      map[string]OperatorStats // each operator's stats at the last tick
	lastNS    int64
	pendingOp string // operator of the plan this controller has in flight
	ring      []AutoscaleDecision

	evals      metrics.Counter
	scaleUps   metrics.Counter
	scaleDowns metrics.Counter
	holds      metrics.Counter
	rejected   metrics.Counter
	aborts     metrics.Counter
}

func newAutoscaler(e *Engine) *autoscaler {
	return &autoscaler{
		eng:    e,
		cfg:    e.cfg.Autoscale,
		states: map[string]*opScaleState{},
		last:   map[string]OperatorStats{},
		lastNS: time.Now().UnixNano(),
	}
}

// scalableOps lists the operators the controller manages: every bolt that
// is not the internal acker, in topology order (deterministic iteration).
func (a *autoscaler) scalableOps() []string {
	var out []string
	for _, id := range a.eng.topo.Order {
		if id == ackerOperatorID || a.eng.topo.Operators[id].IsSpout {
			continue
		}
		out = append(out, id)
	}
	return out
}

// planResolved is the rescale plane telling the controller the fate of a
// plan: an abort of the controller's own in-flight plan escalates the
// operator's backoff, a commit clears it. Plans the controller did not
// issue (and calls on a disabled controller) are ignored.
func (a *autoscaler) planResolved(committed bool, nowNS int64) {
	if a == nil || a.pendingOp == "" {
		return
	}
	if committed {
		a.state(a.pendingOp).backoff = 0
	} else {
		a.state(a.pendingOp).noteFailure(nowNS, a.cfg.Cooldown)
		a.aborts.Inc()
	}
	a.pendingOp = ""
}

func (a *autoscaler) state(op string) *opScaleState {
	st := a.states[op]
	if st == nil {
		st = &opScaleState{}
		a.states[op] = st
	}
	return st
}

// observe measures one operator over the window since the last tick: λ
// from the exact executed count, te as the mean of the executions sampled
// in the window (the execute-time histogram holds one in
// metrics.SampleEvery, so its sum is read against its own count).
func (a *autoscaler) observe(op string, nowNS int64) opObservation {
	o := opObservation{NowNS: nowNS}
	stats := mergedOpStats(a.eng.opShares(op))
	prev := a.last[op]
	a.last[op] = stats
	winSec := float64(nowNS-a.lastNS) / 1e9
	dExec := stats.Executed - prev.Executed
	dTimed := stats.ExecLatency.Count - prev.ExecLatency.Count
	dSum := stats.ExecLatency.Sum - prev.ExecLatency.Sum
	if winSec > 0 && dExec >= 0 {
		o.Lambda = float64(dExec) / winSec
	}
	if dTimed > 0 && dSum > 0 {
		o.Te = float64(dSum) / float64(dTimed) / 1e9
	}
	tv := a.eng.tv()
	o.Par = len(tv.assign.TasksOf[op])
	if a.eng.topo.fieldsGrouped(op) {
		o.MaxPar = NumSlots
	}
	o.QueueLen = a.eng.opQueueLen(op)
	return o
}

// tick runs one controller round: measure every scalable operator, decide,
// and actuate at most one rescale (the plane holds one plan at a time; the
// next tick re-evaluates the rest).
func (a *autoscaler) tick(nowNS int64) {
	bn := ""
	if top := a.eng.BottleneckReport().Top(); top.Component != "" {
		bn = fmt.Sprintf("%s (%s)", top.Component, top.Class)
	}
	// One plan in flight at a time: while ours is still pending on its
	// aligned cut, every actionable decision this tick converts to a hold.
	acted := a.pendingOp != ""
	for _, op := range a.scalableOps() {
		o := a.observe(op, nowNS)
		if o.Par == 0 {
			continue
		}
		st := a.state(op)
		d := st.decide(op, o, a.cfg)
		d.Bottleneck = bn
		a.evals.Inc()
		if d.Action == AutoscaleHold || acted {
			if d.Action != AutoscaleHold {
				// The single rescale slot is spoken for (a plan is still in
				// flight, or another operator acted this tick); re-evaluate
				// once it resolves.
				d.Action, d.To = AutoscaleHold, d.From
				d.Reason = "suppressed: a rescale plan is already in flight"
				st.highStreak, st.lowStreak = 0, 0
			}
			a.holds.Inc()
			a.record(d)
			continue
		}
		var on []int32
		if d.To > d.From {
			on = a.placement(op, d.To-d.From)
		}
		if err := a.eng.mon.rescale(op, d.To, on); err != nil {
			st.noteFailure(nowNS, a.cfg.Cooldown)
			d.Action = AutoscaleRejected
			d.Reason = err.Error()
			a.rejected.Inc()
			a.record(d)
			a.appendEvent(d)
			continue
		}
		st.lastActionNS = nowNS
		st.highStreak, st.lowStreak = 0, 0
		a.pendingOp = op
		acted = true
		if d.Action == AutoscaleUp {
			a.scaleUps.Inc()
		} else {
			a.scaleDowns.Inc()
		}
		a.record(d)
		a.appendEvent(d)
	}
	a.lastNS = nowNS
}

// placement picks hosts for the tasks a scale-up adds, preferring
// joined-but-idle workers: fewest tasks of the rescaled operator first
// (spread the hot operator), then fewest tasks overall (a freshly joined
// worker hosts none and sorts to the front), ties by id for determinism.
func (a *autoscaler) placement(op string, n int) []int32 {
	e := a.eng
	assign := e.tv().assign
	opOn := map[int32]int{}
	for _, tid := range assign.TasksOf[op] {
		opOn[assign.WorkerOf[tid]]++
	}
	type cand struct {
		w          int32
		opTasks    int
		totalTasks int
	}
	var cands []cand
	for w := int32(0); int(w) < e.cfg.MaxWorkers; w++ {
		if e.joinedWorker(w) && !e.workerDead(w) {
			cands = append(cands, cand{w: w, opTasks: opOn[w], totalTasks: len(assign.LocalTasks(w))})
		}
	}
	if len(cands) == 0 {
		return nil // let Rescale's default placement report the error
	}
	out := make([]int32, 0, n)
	for i := 0; i < n; i++ {
		sort.Slice(cands, func(x, y int) bool {
			if cands[x].opTasks != cands[y].opTasks {
				return cands[x].opTasks < cands[y].opTasks
			}
			if cands[x].totalTasks != cands[y].totalTasks {
				return cands[x].totalTasks < cands[y].totalTasks
			}
			return cands[x].w < cands[y].w
		})
		out = append(out, cands[0].w)
		cands[0].opTasks++
		cands[0].totalTasks++
	}
	return out
}

// record appends d to the bounded decision ring.
func (a *autoscaler) record(d AutoscaleDecision) {
	if len(a.ring) == autoscaleRingCap {
		copy(a.ring, a.ring[1:])
		a.ring = a.ring[:autoscaleRingCap-1]
	}
	a.ring = append(a.ring, d)
}

// appendEvent writes an acted-on (or rejected) decision into the
// reconfiguration event log with its model inputs.
func (a *autoscaler) appendEvent(d AutoscaleDecision) {
	kind := obs.EventAutoscaleRejected
	switch d.Action {
	case AutoscaleUp:
		kind = obs.EventAutoscaleUp
	case AutoscaleDown:
		kind = obs.EventAutoscaleDown
	}
	a.eng.obs.Events.Append(obs.Event{
		Kind: kind, Lambda: d.Lambda, Te: d.Te, QueueLen: d.QueueLen,
		Detail: fmt.Sprintf("%s: %d -> %d (rho %.2f): %s", d.Operator, d.From, d.To, d.Rho, d.Reason),
	})
}

// registerObs publishes the autoscale.* series.
func (a *autoscaler) registerObs() {
	r := a.eng.obs.Reg
	r.CounterFunc("autoscale.evals", a.evals.Value)
	r.CounterFunc("autoscale.scale_ups", a.scaleUps.Value)
	r.CounterFunc("autoscale.scale_downs", a.scaleDowns.Value)
	r.CounterFunc("autoscale.holds", a.holds.Value)
	r.CounterFunc("autoscale.rejected", a.rejected.Value)
	r.CounterFunc("autoscale.plan_aborts", a.aborts.Value)
}

// opQueueLen sums the queued-tuple depth across one operator's executors
// (their inboxes, taken batches included).
func (e *Engine) opQueueLen(op string) int {
	n := 0
	for _, w := range e.workers {
		for _, ex := range w.execMap() {
			if ex.ctx.OperatorID == op {
				n += ex.queueLen()
			}
		}
	}
	return n
}

// AutoscaleReport is the controller's introspection document, served at
// /debug/autoscale and returned by Cluster.AutoscaleReport.
type AutoscaleReport struct {
	Enabled bool            `json:"enabled"`
	Config  AutoscaleConfig `json:"config,omitempty"`
	// Decisions are the retained controller evaluations, oldest first
	// (bounded ring of autoscaleRingCap).
	Decisions []AutoscaleDecision `json:"decisions,omitempty"`
}

// AutoscaleReport snapshots the autoscale controller's configuration and
// recent decisions (empty/disabled when Config.Autoscale.Interval is 0).
func (e *Engine) AutoscaleReport() AutoscaleReport {
	if e.scaler == nil {
		return AutoscaleReport{}
	}
	rep := AutoscaleReport{Enabled: true, Config: e.scaler.cfg}
	e.mon.read(func() { rep.Decisions = append([]AutoscaleDecision(nil), e.scaler.ring...) })
	return rep
}
