package dsps

import (
	"math"
	"strings"
	"testing"
	"time"

	"whale/internal/metrics"
)

// autoscaleTestConfig is the band the decision-table tests run under:
// confirm after 2 observations, cooldown 1s, step cap 4, clamp [1, 64].
func autoscaleTestConfig() AutoscaleConfig {
	return AutoscaleConfig{
		Interval: 100 * time.Millisecond,
		RhoHigh:  0.8,
		RhoLow:   0.3,
		Cooldown: time.Second,
		MaxStep:  4,
	}.withDefaults()
}

// obsAt builds one observation n seconds into a synthetic run.
func obsAt(sec int64, lambda, te float64, par int) opObservation {
	return opObservation{NowNS: sec * 1e9, Lambda: lambda, Te: te, Par: par}
}

// TestAutoscaleDecisionTable drives the pure decision function over
// (arrival rate, service time, parallelism) points. Each case starts from
// fresh hysteresis state and repeats the same observation `repeat` times;
// the final decision is asserted.
func TestAutoscaleDecisionTable(t *testing.T) {
	cfg := autoscaleTestConfig()
	cases := []struct {
		name       string
		lambda, te float64
		par        int
		repeat     int
		action     string
		to         int
	}{
		// ρ = λ·te/par.
		{"in-band holds", 500, 0.001, 1, 3, AutoscaleHold, 1},
		{"overload needs confirmation", 2000, 0.001, 1, 1, AutoscaleHold, 1},
		{"confirmed overload scales up", 2000, 0.001, 1, 2, AutoscaleUp, 4},
		// Sized to mid-band ρ=0.55: ceil(2000·0.001/0.55) = 4.
		{"target is the M/D/1 mid-band size", 2000, 0.001, 2, 2, AutoscaleUp, 4},
		// ceil(20000·0.001/0.55) = 37, but MaxStep caps the move at +4.
		{"max-step bounds the jump", 20000, 0.001, 2, 2, AutoscaleUp, 6},
		// ρ=0.295 is just under the band, but the mid-band size rounds back
		// up to the current count — a confirmed low streak still sheds one.
		{"borderline light load still sheds one", 590, 0.001, 2, 2, AutoscaleDown, 1},
		{"idle needs confirmation", 0, 0.001, 4, 1, AutoscaleHold, 4},
		{"confirmed idle scales down", 0, 0.001, 4, 2, AutoscaleDown, 1},
		// ceil(900·0.001/0.55) = 2.
		{"light load sizes down to model target", 900, 0.001, 8, 2, AutoscaleDown, 4},
		{"min parallelism floors the shrink", 100, 0.0001, 1, 5, AutoscaleHold, 1},
		{"zero lambda without any te sample holds", 0, 0, 3, 5, AutoscaleHold, 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st := &opScaleState{}
			var d AutoscaleDecision
			for i := 0; i < tc.repeat; i++ {
				d = st.decide("op", obsAt(int64(i), tc.lambda, tc.te, tc.par), cfg)
			}
			if d.Action != tc.action || d.To != tc.to {
				t.Fatalf("decide(λ=%g te=%g par=%d x%d) = %s -> %d (%s), want %s -> %d",
					tc.lambda, tc.te, tc.par, tc.repeat, d.Action, d.To, d.Reason, tc.action, tc.to)
			}
		})
	}
}

// TestAutoscaleSlotClamp holds fields-grouped operators at the 64-slot
// bound: a confirmed overload at NumSlots parallelism must not grow.
func TestAutoscaleSlotClamp(t *testing.T) {
	cfg := autoscaleTestConfig()
	st := &opScaleState{}
	var d AutoscaleDecision
	for i := 0; i < 3; i++ {
		o := obsAt(int64(i), 500_000, 0.001, NumSlots)
		o.MaxPar = NumSlots // what the controller sets for fields-grouped ops
		d = st.decide("agg", o, cfg)
	}
	if d.Action != AutoscaleHold || d.To != NumSlots {
		t.Fatalf("overload at the slot bound: %s -> %d, want hold at %d", d.Action, d.To, NumSlots)
	}
	if !strings.Contains(d.Reason, "clamped") {
		t.Fatalf("reason %q does not name the clamp", d.Reason)
	}
	// One task below the bound, the same overload grows exactly to it.
	st = &opScaleState{}
	for i := 0; i < 2; i++ {
		o := obsAt(int64(i), 500_000, 0.001, NumSlots-1)
		o.MaxPar = NumSlots
		d = st.decide("agg", o, cfg)
	}
	if d.Action != AutoscaleUp || d.To != NumSlots {
		t.Fatalf("overload below the slot bound: %s -> %d, want scale-up to %d", d.Action, d.To, NumSlots)
	}
}

// TestAutoscaleCooldownSuppression confirms one action opens a cooldown
// window during which further confirmed decisions hold, and that the
// window expiring re-enables action.
func TestAutoscaleCooldownSuppression(t *testing.T) {
	cfg := autoscaleTestConfig() // cooldown 1s
	st := &opScaleState{}
	var d AutoscaleDecision
	for i := 0; i < 2; i++ {
		d = st.decide("op", obsAt(int64(i), 2000, 0.001, 1), cfg)
	}
	if d.Action != AutoscaleUp {
		t.Fatalf("setup: expected scale-up, got %s (%s)", d.Action, d.Reason)
	}
	st.lastActionNS = d.TimeNS // what the controller records on success
	st.highStreak, st.lowStreak = 0, 0

	// Still overloaded at the new parallelism: rebuild the confirmation
	// streak, then evaluate 0.4s after the action — inside the window.
	st.decide("op", obsAt(1, 2000, 0.001, 2), cfg)
	st.decide("op", obsAt(1, 2000, 0.001, 2), cfg)
	d = st.decide("op", opObservation{NowNS: 1_400_000_000, Lambda: 2000, Te: 0.001, Par: 2}, cfg)
	if d.Action != AutoscaleHold || !strings.Contains(d.Reason, "cooldown") {
		t.Fatalf("inside cooldown: %s (%s), want suppressed hold", d.Action, d.Reason)
	}
	// Past the window the pent-up decision fires.
	d = st.decide("op", opObservation{NowNS: 3 * 1e9, Lambda: 2000, Te: 0.001, Par: 2}, cfg)
	if d.Action != AutoscaleUp {
		t.Fatalf("after cooldown: %s (%s), want scale-up", d.Action, d.Reason)
	}
}

// TestAutoscaleBackoffAfterAbort exercises the failure path: an aborted or
// rejected plan suppresses the operator for an escalating backoff.
func TestAutoscaleBackoffAfterAbort(t *testing.T) {
	cfg := autoscaleTestConfig() // cooldown (= base backoff) 1s
	st := &opScaleState{}
	st.noteFailure(10*1e9, cfg.Cooldown)
	if st.backoff != time.Second {
		t.Fatalf("first failure backoff = %v, want 1s", st.backoff)
	}

	confirm := func(nowSec int64) AutoscaleDecision {
		var d AutoscaleDecision
		for i := 0; i < 2; i++ {
			d = st.decide("op", obsAt(nowSec, 2000, 0.001, 1), cfg)
		}
		return d
	}
	if d := confirm(10); d.Action != AutoscaleHold || !strings.Contains(d.Reason, "backing off") {
		t.Fatalf("inside backoff: %s (%s), want suppressed hold", d.Action, d.Reason)
	}
	// A second failure doubles the window; a third doubles it again.
	st.noteFailure(11*1e9, cfg.Cooldown)
	if st.backoff != 2*time.Second {
		t.Fatalf("second failure backoff = %v, want 2s", st.backoff)
	}
	st.noteFailure(13*1e9, cfg.Cooldown)
	if st.backoff != 4*time.Second {
		t.Fatalf("third failure backoff = %v, want 4s", st.backoff)
	}
	if d := confirm(16); d.Action != AutoscaleHold {
		t.Fatalf("still inside escalated backoff: %s (%s)", d.Action, d.Reason)
	}
	// Past the window the controller acts again.
	if d := confirm(18); d.Action != AutoscaleUp {
		t.Fatalf("after backoff: %s (%s), want scale-up", d.Action, d.Reason)
	}
	// The escalation caps at 8x the cooldown.
	for i := 0; i < 10; i++ {
		st.noteFailure(20*1e9, cfg.Cooldown)
	}
	if st.backoff != 8*time.Second {
		t.Fatalf("backoff cap = %v, want 8s", st.backoff)
	}
}

// TestAutoscaleIdleUsesLastServiceTime: an interval with no executions
// (λ=0, no te sample) still sizes down using the remembered service time.
func TestAutoscaleIdleUsesLastServiceTime(t *testing.T) {
	cfg := autoscaleTestConfig()
	st := &opScaleState{}
	// Warm up the te memory with an in-band observation.
	d := st.decide("op", obsAt(0, 500, 0.001, 1), cfg)
	if d.Action != AutoscaleHold {
		t.Fatalf("warmup: %s, want hold", d.Action)
	}
	var got AutoscaleDecision
	for i := 1; i <= 2; i++ {
		got = st.decide("op", obsAt(int64(i), 0, 0, 4), cfg)
	}
	if got.Action != AutoscaleDown || got.To != 1 {
		t.Fatalf("idle intervals: %s -> %d (%s), want scale-down to 1", got.Action, got.To, got.Reason)
	}
	if got.Te != 0.001 {
		t.Fatalf("idle decision te = %g, want remembered 0.001", got.Te)
	}
}

// TestAutoscaleObserveReadsSampledTe: the execute-time histogram holds one
// execution in SampleEvery, so te is its sum over its own count while λ
// counts every execution — 1 600 executions in one second, 100 of them
// timed at 1 ms each, read λ = 1 600/s and te = 1 ms.
func TestAutoscaleObserveReadsSampledTe(t *testing.T) {
	r := newMonitorRig(t, rigAutoscale)
	a := r.eng.scaler
	var o opObservation
	r.feed(call(func() {
		ops := r.eng.workers[1].execMap()[1].ops
		ops.executed.Add(1600)
		for i := 0; i < 1600/metrics.SampleEvery; i++ {
			ops.execNS.Observe(int64(time.Millisecond))
		}
		o = a.observe("sink", a.lastNS+int64(time.Second))
	}))
	if math.Abs(o.Lambda-1600) > 1e-9 || math.Abs(o.Te-0.001) > 1e-12 {
		t.Fatalf("observe: λ = %g/s, te = %g s; want 1600/s and 0.001 s", o.Lambda, o.Te)
	}
}
