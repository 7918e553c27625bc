package bench

import (
	"fmt"

	"whale/internal/cluster"
	"whale/internal/obs/attrib"
)

// bottleneckScenario injects one known bottleneck into the DES cluster and
// names the component the analyzer must attribute it to.
type bottleneckScenario struct {
	name      string
	component string // expected Finding.Component of the top-ranked finding
	class     string // expected Finding.Class
	mut       func(*cluster.Config)
}

// bottleneckScenarios are the attribution experiment's ground truths: a
// slow subscriber machine, a hot interior relay, and an undersized credit
// window on one source link. Factors are deliberately heavy-handed — the
// experiment validates *attribution*, not sensitivity, so the injected
// component must dominate the stall profile decisively.
func bottleneckScenarios() []bottleneckScenario {
	return []bottleneckScenario{
		{
			name:      "slow-subscriber",
			component: "worker 7 executor",
			class:     attrib.ClassSlowSubscriber,
			mut: func(c *cluster.Config) {
				c.Variant = cluster.Whale
				c.SlowMachine = 7
				c.SlowFactor = 48
			},
		},
		{
			name:      "hot-relay",
			component: "worker 1 relay",
			class:     attrib.ClassHotRelay,
			mut: func(c *cluster.Config) {
				c.Variant = cluster.Whale
				c.HotRelayMachine = 1
				c.HotRelayFactor = 48
			},
		},
		{
			name:      "credit-limited-link",
			component: "link w0→w5",
			class:     attrib.ClassCreditLimited,
			mut: func(c *cluster.Config) {
				// Star fan-out so the source sends on link 0→5 directly.
				c.Variant = cluster.WhaleWOCRDMA
				c.CreditLimitMachine = 5
				c.CreditRatePerSec = 1200
			},
		},
	}
}

// bottleneckRun executes one injection scenario at paper scale under an
// open-loop rate the unperturbed pipeline sustains easily, so all excess
// queueing concentrates at the injected component.
func bottleneckRun(sc bottleneckScenario, quick bool) cluster.Result {
	cfg := cluster.Config{
		Parallelism: 480,
		InputRate:   3000,
		MaxTuples:   tuples(quick),
		Seed:        7,
	}
	sc.mut(&cfg)
	return cluster.Run(cfg)
}

func runBottleneck(quick bool) (*Report, error) {
	rep := &Report{
		ID:    "bottleneck",
		Title: "Injected bottlenecks vs analyzer attribution (M/D/1 stall profile)",
		Columns: []string{
			"injected", "top-ranked component / model", "class / action", "stall share", "detail", "ok?",
		},
	}
	for _, sc := range bottleneckScenarios() {
		res := bottleneckRun(sc, quick)
		top := res.Bottleneck.Top()
		hit := "MISS"
		if top.Component == sc.component && top.Class == sc.class {
			hit = "yes"
		}
		rep.Rows = append(rep.Rows, []string{
			sc.name, top.Component, top.Class,
			pct(top.Share), ms(float64(top.StallNS)) + " stalled", hit,
		})
		if hit != "yes" {
			rep.Notes = append(rep.Notes, fmt.Sprintf(
				"%s: expected %s %s, analyzer ranked %s %s first",
				sc.name, sc.component, sc.class, top.Component, top.Class))
		}
	}
	appendHotOperatorRow(rep, quick)
	return rep, nil
}

// appendHotOperatorRow runs the closed-loop autoscale validation: an
// operator-wide hot spot (every matching instance's service time stretched)
// must drive the measured utilization over the band and make the modeled
// M/D/1 controller size the pool to exactly the analytic prediction
// (cluster.PredictedAutoscaleTarget) — the same sizing arithmetic the live
// dsps autoscaler runs on the rescale plane.
func appendHotOperatorRow(rep *Report, quick bool) {
	cfg := cluster.Config{
		Variant:           cluster.Whale,
		Parallelism:       480,
		InputRate:         3000,
		MaxTuples:         tuples(quick),
		Seed:              7,
		HotOperatorFactor: 14,
	}
	res := cluster.Run(cfg)
	want := cluster.PredictedAutoscaleTarget(cfg)
	hit := "MISS"
	if res.AutoscaleAction == "scale-up" && res.AutoscaleTarget == want {
		hit = "yes"
	}
	rep.Rows = append(rep.Rows, []string{
		fmt.Sprintf("hot-operator (te x%g)", cfg.HotOperatorFactor),
		fmt.Sprintf("matching pool, measured rho %.2f", res.MatchRho),
		res.AutoscaleAction,
		pct(res.MatchRho),
		fmt.Sprintf("target %d machines, predicted %d", res.AutoscaleTarget, want),
		hit,
	})
	if hit != "yes" {
		rep.Notes = append(rep.Notes, fmt.Sprintf(
			"hot-operator: expected scale-up to %d, model said %s to %d",
			want, res.AutoscaleAction, res.AutoscaleTarget))
	}
}
