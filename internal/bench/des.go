package bench

import (
	"fmt"
	"time"

	"whale/internal/cluster"
	"whale/internal/netmodel"
	"whale/internal/queueing"
	"whale/internal/sim"
	"whale/internal/workload"
)

// sweep parallelism levels (the paper sweeps 120..480).
func parallelisms(quick bool) []int {
	if quick {
		return []int{120, 480}
	}
	return []int{120, 240, 360, 480}
}

func tuples(quick bool) int {
	if quick {
		return 600
	}
	return 4000
}

// desRun wraps cluster.Run with common settings.
func desRun(v cluster.Variant, n int, p netmodel.Params, quick bool, mut func(*cluster.Config)) cluster.Result {
	cfg := cluster.Config{
		Variant: v, Parallelism: n, Params: p,
		MaxTuples: tuples(quick), Seed: 7,
	}
	if mut != nil {
		mut(&cfg)
	}
	return cluster.Run(cfg)
}

// The five systems of Figs. 13-16, in the paper's order.
var fig13Systems = []cluster.Variant{
	cluster.Storm, cluster.RDMAStorm, cluster.WhaleWOC, cluster.WhaleWOCRDMA, cluster.Whale,
}

// The three multicast structures of Figs. 17-22 (all on Whale-WOC-RDMA).
var treeSystems = []struct {
	name string
	v    cluster.Variant
}{
	{"Sequential", cluster.WhaleWOCRDMA},
	{"Binomial (RDMC)", cluster.RDMC},
	{"Non-blocking (Whale)", cluster.Whale},
}

func init() {
	register("table2", "Dataset statistics (paper Table 2 vs synthetic generators)", runTable2)
	register("fig2", "Storm one-to-many bottleneck: throughput, latency, CPU (Fig. 2a-d)", runFig2)
	register("fig3", "RDMC under rising input rate: blocking transfer queue (Fig. 3a-b)", runFig3)
	register("fig11", "Whale performance vs Max Memory Size (Fig. 11)", runFig11)
	register("fig13", "Ride-hailing throughput vs parallelism (Fig. 13)", throughputSweep(netmodel.Default30Node(), "ride-hailing"))
	register("fig14", "Ride-hailing processing latency vs parallelism (Fig. 14)", latencySweep(netmodel.Default30Node(), "ride-hailing"))
	register("fig15", "Stock-exchange throughput vs parallelism (Fig. 15)", throughputSweep(netmodel.StockExchange(), "stock"))
	register("fig16", "Stock-exchange processing latency vs parallelism (Fig. 16)", latencySweep(netmodel.StockExchange(), "stock"))
	register("fig17", "Multicast structures, ride-hailing throughput (Fig. 17)", treeThroughput(netmodel.Default30Node()))
	register("fig18", "Multicast structures, ride-hailing latency (Fig. 18)", treeLatency(netmodel.Default30Node()))
	register("fig19", "Multicast structures, stock throughput (Fig. 19)", treeThroughput(netmodel.StockExchange()))
	register("fig20", "Multicast structures, stock latency (Fig. 20)", treeLatency(netmodel.StockExchange()))
	register("fig21", "Average multicast latency, ride-hailing, d*=3 (Fig. 21)", mcastLatency(netmodel.Default30Node()))
	register("fig22", "Average multicast latency, stock, d*=3 (Fig. 22)", mcastLatency(netmodel.StockExchange()))
	register("fig23", "Dynamic input rate: throughput timeline (Fig. 23)", runFig23)
	register("fig24", "Dynamic input rate: latency timeline (Fig. 24)", runFig24)
	register("fig25", "Communication time vs parallelism (Fig. 25)", runFig25)
	register("fig26", "Serialization share of communication time (Fig. 26)", runFig26)
	register("fig27", "Communication traffic per 10k tuples, ride-hailing (Fig. 27)", trafficSweep(netmodel.Default30Node()))
	register("fig28", "Communication traffic per 10k tuples, stock (Fig. 28)", trafficSweep(netmodel.StockExchange()))
	register("fig29", "RDMA operations: throughput (Fig. 29)", runFig29)
	register("fig30", "RDMA operations: average latency (Fig. 30)", runFig30)
	register("fig31", "Suited RDMA verbs: throughput (Fig. 31)", runFig31)
	register("fig32", "Suited RDMA verbs: latency (Fig. 32)", runFig32)
	register("fig33", "Throughput vs number of racks (Fig. 33)", runFig33)
	register("fig34", "Latency vs number of racks (Fig. 34)", runFig34)
	register("ablation-waterline", "Ablation: waterline rules vs baseline dynamic switch (Theorem 3)", runAblationWaterline)
	register("ablation-smoothing", "Ablation: α-weighted rate smoothing vs raw rate", runAblationSmoothing)
	register("ablation-dstar", "Ablation: fixed d* sweep (Theorems 1-2 trade-off)", runAblationDstar)
	register("ext-scale", "Extension: parallelism beyond core saturation", runExtScale)
	register("bottleneck", "Injected bottlenecks vs analyzer attribution", runBottleneck)
}

func runTable2(quick bool) (*Report, error) {
	samples := int64(200000)
	if quick {
		samples = 20000
	}
	rideCfg := workload.RideConfig{Drivers: 10000, Seed: 1}
	stockCfg := workload.StockConfig{Seed: 1}
	ride := workload.NewRideGen(rideCfg)
	rideKeys := map[string]bool{}
	for i := int64(0); i < samples; i++ {
		id, _, _ := ride.NextLocation()
		rideKeys[id] = true
	}
	stock := workload.NewStockGen(stockCfg)
	stockKeys := map[string]bool{}
	for i := int64(0); i < samples; i++ {
		sym, _, _, _ := stock.Next()
		stockKeys[sym] = true
	}
	rep := &Report{
		ID: "table2", Title: "Dataset statistics",
		Columns: []string{"dataset", "tuples", "keys"},
		Rows: [][]string{
			{"Didi Orders (paper)", "13 B", "6 M"},
			{"Nasdaq Stock (paper)", "274 M", "6.7 K"},
			{"synthetic ride-hailing (sampled)", fmt.Sprint(samples), fmt.Sprint(len(rideKeys))},
			{"synthetic stock (sampled)", fmt.Sprint(samples), fmt.Sprint(len(stockKeys))},
		},
		Notes: []string{"generators are unbounded streams; sampled keys approach the configured cardinality as the sample grows"},
	}
	return rep, nil
}

func runFig2(quick bool) (*Report, error) {
	rep := &Report{
		ID: "fig2", Title: "Storm one-to-many bottleneck",
		Columns: []string{"parallelism", "throughput t/s", "latency ms", "src CPU", "downstream CPU", "serialize share", "net share"},
	}
	levels := []int{30, 120, 240, 480}
	if quick {
		levels = []int{30, 480}
	}
	var first, last cluster.Result
	for i, n := range levels {
		res := desRun(cluster.Storm, n, netmodel.Default30Node(), quick, nil)
		rep.Rows = append(rep.Rows, []string{
			fmt.Sprint(n), f0(res.Throughput), ms(res.ProcLatency.Mean),
			pct(res.SrcUtil), pct(res.MatchUtil), pct(res.SerFrac), pct(1 - res.SerFrac),
		})
		if i == 0 {
			first = res
		}
		last = res
	}
	rep.Notes = append(rep.Notes,
		fmt.Sprintf("paper Fig. 2a: throughput at max parallelism ~1/10 of lowest; measured ratio %.2f", last.Throughput/first.Throughput),
		"paper Fig. 2c-d: upstream CPU saturates on serialization+network while downstream idles")
	return rep, nil
}

func runFig3(quick bool) (*Report, error) {
	rep := &Report{
		ID: "fig3", Title: "RDMC transfer-queue blocking under rising input rate",
		Columns: []string{"input rate t/s", "throughput t/s", "load factor", "latency ms", "peak queue", "drops"},
	}
	// Probe RDMC's capacity, then sweep rates across it.
	cap := desRun(cluster.RDMC, 480, netmodel.Default30Node(), quick, nil).Throughput
	fractions := []float64{0.25, 0.5, 0.75, 0.9, 1.1, 1.5, 2.0}
	if quick {
		fractions = []float64{0.5, 1.5}
	}
	for _, f := range fractions {
		rate := cap * f
		res := desRun(cluster.RDMC, 480, netmodel.Default30Node(), quick, func(c *cluster.Config) {
			c.InputRate = rate
			c.Q = 256
			c.MaxTuples = tuples(quick) * 2
		})
		rep.Rows = append(rep.Rows, []string{
			f0(rate), f0(res.Throughput), f2(res.LoadFactor),
			ms(res.ProcLatency.Mean), fmt.Sprint(res.PeakQueue), fmt.Sprint(res.Drops),
		})
	}
	rep.Notes = append(rep.Notes,
		"paper Fig. 3: RDMC throughput stops rising and latency spikes once the static tree's source saturates (load factor >= 1)")
	return rep, nil
}

func throughputSweep(p netmodel.Params, app string) func(bool) (*Report, error) {
	return func(quick bool) (*Report, error) {
		rep := &Report{
			Title:   app + " throughput vs parallelism",
			Columns: []string{"parallelism"},
		}
		for _, s := range fig13Systems {
			rep.Columns = append(rep.Columns, s.String()+" t/s")
		}
		var storm480, whale480 float64
		for _, n := range parallelisms(quick) {
			row := []string{fmt.Sprint(n)}
			for _, s := range fig13Systems {
				res := desRun(s, n, p, quick, nil)
				row = append(row, f0(res.Throughput))
				if n == 480 {
					switch s {
					case cluster.Storm:
						storm480 = res.Throughput
					case cluster.Whale:
						whale480 = res.Throughput
					}
				}
			}
			rep.Rows = append(rep.Rows, row)
		}
		if storm480 > 0 {
			rep.Notes = append(rep.Notes, fmt.Sprintf(
				"paper: Whale/Storm at 480 = 56.6x (ride) / 51.2x (stock); measured %.1fx (simulator-calibrated, see EXPERIMENTS.md)",
				whale480/storm480))
		}
		return rep, nil
	}
}

func latencySweep(p netmodel.Params, app string) func(bool) (*Report, error) {
	return func(quick bool) (*Report, error) {
		rep := &Report{
			Title:   app + " processing latency vs parallelism",
			Columns: []string{"parallelism"},
		}
		for _, s := range fig13Systems {
			rep.Columns = append(rep.Columns, s.String()+" ms")
		}
		var storm480, whale480 float64
		for _, n := range parallelisms(quick) {
			row := []string{fmt.Sprint(n)}
			for _, s := range fig13Systems {
				res := desRun(s, n, p, quick, nil)
				row = append(row, ms(res.ProcLatency.Mean))
				if n == 480 {
					switch s {
					case cluster.Storm:
						storm480 = res.ProcLatency.Mean
					case cluster.Whale:
						whale480 = res.ProcLatency.Mean
					}
				}
			}
			rep.Rows = append(rep.Rows, row)
		}
		if storm480 > 0 {
			rep.Notes = append(rep.Notes, fmt.Sprintf(
				"paper: Whale reduces latency ~96%% at 480; measured %.1f%%", (1-whale480/storm480)*100))
		}
		return rep, nil
	}
}

// treeRate drives the three structures at the same open-loop rate: 90% of
// the binomial tree's capacity — past the sequential star's saturation
// point, where the paper measures the structures (it inputs the maximum
// rate the system sustains) and source queueing differentiates them.
func treeRate(p netmodel.Params, n int, quick bool) float64 {
	capacity := desRun(cluster.RDMC, n, p, quick, nil).Throughput
	return capacity * 0.9
}

func treeThroughput(p netmodel.Params) func(bool) (*Report, error) {
	return func(quick bool) (*Report, error) {
		rep := &Report{
			Title:   "multicast structures: closed-loop throughput",
			Columns: []string{"parallelism"},
		}
		for _, s := range treeSystems {
			rep.Columns = append(rep.Columns, s.name+" t/s")
		}
		for _, n := range parallelisms(quick) {
			row := []string{fmt.Sprint(n)}
			for _, s := range treeSystems {
				res := desRun(s.v, n, p, quick, nil)
				row = append(row, f0(res.Throughput))
			}
			rep.Rows = append(rep.Rows, row)
		}
		rep.Notes = append(rep.Notes, "paper Figs. 17/19: non-blocking 1.2x binomial, 1.4x sequential at 480")
		return rep, nil
	}
}

func treeLatency(p netmodel.Params) func(bool) (*Report, error) {
	return func(quick bool) (*Report, error) {
		rep := &Report{
			Title:   "multicast structures: processing latency at 90% of binomial capacity",
			Columns: []string{"parallelism"},
		}
		for _, s := range treeSystems {
			rep.Columns = append(rep.Columns, s.name+" ms")
		}
		for _, n := range parallelisms(quick) {
			rate := treeRate(p, n, quick)
			row := []string{fmt.Sprint(n)}
			for _, s := range treeSystems {
				res := desRun(s.v, n, p, quick, func(c *cluster.Config) { c.InputRate = rate })
				row = append(row, ms(res.ProcLatency.Mean))
			}
			rep.Rows = append(rep.Rows, row)
		}
		rep.Notes = append(rep.Notes, "paper Figs. 18/20: non-blocking cuts latency 26.9%/23.4% vs binomial, 38.8%/32.6% vs sequential")
		return rep, nil
	}
}

func mcastLatency(p netmodel.Params) func(bool) (*Report, error) {
	return func(quick bool) (*Report, error) {
		rep := &Report{
			Title:   "average multicast latency (d*=3) at 90% of binomial capacity",
			Columns: []string{"parallelism"},
		}
		for _, s := range treeSystems {
			rep.Columns = append(rep.Columns, s.name+" µs")
		}
		for _, n := range parallelisms(quick) {
			rate := treeRate(p, n, quick)
			row := []string{fmt.Sprint(n)}
			for _, s := range treeSystems {
				res := desRun(s.v, n, p, quick, func(c *cluster.Config) {
					c.InputRate = rate
					c.Dstar = 3
				})
				row = append(row, us(res.McastLat.Mean))
			}
			rep.Rows = append(rep.Rows, row)
		}
		rep.Notes = append(rep.Notes, "paper Figs. 21/22: non-blocking 54.4%/50.6% below binomial, 57.8%/56.6% below sequential at 480")
		return rep, nil
	}
}

// fig23Profile is the paper's step profile (30k -> 60k -> 80k -> 100k ->
// 80k tuples/s), compressed from 40s phases to 0.25s phases of simulated
// time.
func fig23Profile(now sim.Time) float64 {
	sec := float64(now) / 1e9
	switch {
	case sec < 0.25:
		return 30000
	case sec < 0.5:
		return 60000
	case sec < 0.75:
		return 80000
	case sec < 1.0:
		return 100000
	default:
		return 80000
	}
}

func dynamicRun(v cluster.Variant, adaptive bool, quick bool) cluster.Result {
	dur := sim.Time(125e7)
	if quick {
		dur = 5e8
	}
	return cluster.Run(cluster.Config{
		Variant: v, Parallelism: 480, Adaptive: adaptive,
		Params:      netmodel.DynamicProfile(),
		RateProfile: fig23Profile, Duration: dur, Q: 512,
		MonitorInterval: 5 * time.Millisecond,
		TimelineBucket:  5e7, MaxTuples: 1 << 30, Seed: 11,
	})
}

func runFig23(quick bool) (*Report, error) {
	whale := dynamicRun(cluster.Whale, true, quick)
	star := dynamicRun(cluster.WhaleWOCRDMA, false, quick)
	rep := &Report{
		ID: "fig23", Title: "throughput under the 30k/60k/80k/100k/80k t/s step profile",
		Columns: []string{"t (s)", "offered t/s", "Whale t/s", "Whale d*", "sequential t/s", "seq drops"},
	}
	for i, pt := range whale.Timeline {
		var starTp float64
		var starDrops int64
		if i < len(star.Timeline) {
			starTp = star.Timeline[i].Throughput
			starDrops = star.Timeline[i].Drops
		}
		rep.Rows = append(rep.Rows, []string{
			f2(float64(pt.T) / 1e9), f0(fig23Profile(pt.T - 1)), f0(pt.Throughput),
			fmt.Sprint(pt.Dstar), f0(starTp), fmt.Sprint(starDrops),
		})
	}
	rep.Notes = append(rep.Notes,
		fmt.Sprintf("Whale switched %d times; final d*=%d; drops: Whale %d vs sequential %d",
			whale.Switches, whale.FinalDstar, whale.Drops, star.Drops),
		"paper Fig. 23: throughput recovers within ~126ms of each rate step; the switch pause is visible as a one-bucket dip")
	return rep, nil
}

func runFig24(quick bool) (*Report, error) {
	whale := dynamicRun(cluster.Whale, true, quick)
	star := dynamicRun(cluster.WhaleWOCRDMA, false, quick)
	rep := &Report{
		ID: "fig24", Title: "processing latency under the dynamic profile",
		Columns: []string{"t (s)", "offered t/s", "Whale ms", "sequential ms"},
	}
	for i, pt := range whale.Timeline {
		var starLat float64
		if i < len(star.Timeline) {
			starLat = star.Timeline[i].MeanLatencyNS
		}
		rep.Rows = append(rep.Rows, []string{
			f2(float64(pt.T) / 1e9), f0(fig23Profile(pt.T - 1)), ms(pt.MeanLatencyNS), ms(starLat),
		})
	}
	rep.Notes = append(rep.Notes, "paper Fig. 24: sequential latency rises with the input rate; Whale recovers within ~30ms of each switch")
	return rep, nil
}

func runFig25(quick bool) (*Report, error) {
	rep := &Report{
		ID: "fig25", Title: "source communication time per tuple",
		Columns: []string{"parallelism", "Storm µs", "RDMA-Storm µs", "Whale µs", "Whale reduction vs Storm"},
	}
	for _, n := range parallelisms(quick) {
		storm := desRun(cluster.Storm, n, netmodel.Default30Node(), quick, nil)
		rstorm := desRun(cluster.RDMAStorm, n, netmodel.Default30Node(), quick, nil)
		whale := desRun(cluster.Whale, n, netmodel.Default30Node(), quick, nil)
		rep.Rows = append(rep.Rows, []string{
			fmt.Sprint(n), us(storm.CommNSPerTuple), us(rstorm.CommNSPerTuple), us(whale.CommNSPerTuple),
			pct(1 - whale.CommNSPerTuple/storm.CommNSPerTuple),
		})
	}
	rep.Notes = append(rep.Notes, "paper: Whale reduces communication time 96% vs Storm, 92% vs RDMA-Storm at 480; Whale's is flat in parallelism")
	return rep, nil
}

func runFig26(quick bool) (*Report, error) {
	rep := &Report{
		ID: "fig26", Title: "serialization share of communication time",
		Columns: []string{"parallelism", "Storm", "RDMA-Storm", "Whale", "Storm ser µs/tuple", "Whale ser µs/tuple"},
	}
	for _, n := range parallelisms(quick) {
		storm := desRun(cluster.Storm, n, netmodel.Default30Node(), quick, nil)
		rstorm := desRun(cluster.RDMAStorm, n, netmodel.Default30Node(), quick, nil)
		// The serialization-share comparison isolates the worker-oriented
		// communication path (star fan-out), as the paper's Fig. 26 does.
		whale := desRun(cluster.WhaleWOCRDMA, n, netmodel.Default30Node(), quick, nil)
		rep.Rows = append(rep.Rows, []string{
			fmt.Sprint(n), pct(storm.SerFrac), pct(rstorm.SerFrac), pct(whale.SerFrac),
			us(storm.SerNSPerTuple), us(whale.SerNSPerTuple),
		})
	}
	rep.Notes = append(rep.Notes, "paper: serialization is 45% of Storm's and 94% of RDMA-Storm's communication time; 15% of Whale's")
	return rep, nil
}

func trafficSweep(p netmodel.Params) func(bool) (*Report, error) {
	return func(quick bool) (*Report, error) {
		rep := &Report{
			Title:   "source communication traffic per 10k tuples",
			Columns: []string{"parallelism", "Storm MB", "RDMA-Storm MB", "Whale MB", "Whale reduction"},
		}
		for _, n := range parallelisms(quick) {
			storm := desRun(cluster.Storm, n, p, quick, nil)
			rstorm := desRun(cluster.RDMAStorm, n, p, quick, nil)
			whale := desRun(cluster.Whale, n, p, quick, nil)
			mb := func(b float64) string { return f2(b / 1e6) }
			rep.Rows = append(rep.Rows, []string{
				fmt.Sprint(n), mb(storm.TrafficBytesPer10k), mb(rstorm.TrafficBytesPer10k), mb(whale.TrafficBytesPer10k),
				pct(1 - whale.TrafficBytesPer10k/storm.TrafficBytesPer10k),
			})
		}
		rep.Notes = append(rep.Notes, "paper Figs. 27/28: Whale cuts traffic 91.9% (ride) / 90% (stock) at 480 and stays nearly flat")
		return rep, nil
	}
}

func runFig31(quick bool) (*Report, error) {
	rep := &Report{
		ID: "fig31", Title: "suited verbs per path (Whale_DiffVerbs) vs baselines: throughput",
		Columns: []string{"parallelism", "RDMA-Storm t/s", "Whale_SameVerbs t/s", "Whale_DiffVerbs t/s", "DiffVerbs/RDMA-Storm"},
	}
	// Same-verbs = two-sided SEND/RECV on the data path (Whale-WOC);
	// DiffVerbs = the suited one-sided READ ring path (Whale-WOC-RDMA).
	// The worker-oriented star isolates the verbs choice: with the
	// multicast tree both are so cheap at the source that the downstream
	// operator caps throughput and the difference vanishes.
	for _, n := range parallelisms(quick) {
		rstorm := desRun(cluster.RDMAStorm, n, netmodel.Default30Node(), quick, nil)
		sameRes := desRun(cluster.WhaleWOC, n, netmodel.Default30Node(), quick, nil)
		diff := desRun(cluster.WhaleWOCRDMA, n, netmodel.Default30Node(), quick, nil)
		rep.Rows = append(rep.Rows, []string{
			fmt.Sprint(n), f0(rstorm.Throughput), f0(sameRes.Throughput), f0(diff.Throughput),
			f1(diff.Throughput/rstorm.Throughput) + "x",
		})
	}
	rep.Notes = append(rep.Notes, "paper Fig. 31: Whale_DiffVerbs reaches 15.6x RDMA-Storm throughput at 480")
	return rep, nil
}

func runFig32(quick bool) (*Report, error) {
	rep := &Report{
		ID: "fig32", Title: "suited verbs per path: processing latency",
		Columns: []string{"parallelism", "RDMA-Storm ms", "Whale_SameVerbs ms", "Whale_DiffVerbs ms", "reduction vs RDMA-Storm"},
	}
	for _, n := range parallelisms(quick) {
		rstorm := desRun(cluster.RDMAStorm, n, netmodel.Default30Node(), quick, nil)
		sameRes := desRun(cluster.WhaleWOC, n, netmodel.Default30Node(), quick, nil)
		diff := desRun(cluster.WhaleWOCRDMA, n, netmodel.Default30Node(), quick, nil)
		rep.Rows = append(rep.Rows, []string{
			fmt.Sprint(n), ms(rstorm.ProcLatency.Mean), ms(sameRes.ProcLatency.Mean), ms(diff.ProcLatency.Mean),
			pct(1 - diff.ProcLatency.Mean/rstorm.ProcLatency.Mean),
		})
	}
	rep.Notes = append(rep.Notes, "paper Fig. 32: 96% latency reduction vs RDMA-Storm")
	return rep, nil
}

func rackSweep(metric func(cluster.Result) string, unit string) func(bool) (*Report, error) {
	return func(quick bool) (*Report, error) {
		rep := &Report{
			Columns: []string{"racks", "Storm " + unit, "RDMA-Storm " + unit, "Whale " + unit},
		}
		racks := []int{1, 2, 3, 4, 5}
		if quick {
			racks = []int{1, 5}
		}
		for _, r := range racks {
			row := []string{fmt.Sprint(r)}
			for _, v := range []cluster.Variant{cluster.Storm, cluster.RDMAStorm, cluster.Whale} {
				res := desRun(v, 480, netmodel.Default30Node(), quick, func(c *cluster.Config) { c.Racks = r })
				row = append(row, metric(res))
			}
			rep.Rows = append(rep.Rows, row)
		}
		rep.Notes = append(rep.Notes, "paper Figs. 33/34: Whale is stable across 1-5 racks")
		return rep, nil
	}
}

func runFig33(quick bool) (*Report, error) {
	rep, err := rackSweep(func(r cluster.Result) string { return f0(r.Throughput) }, "t/s")(quick)
	if rep != nil {
		rep.ID, rep.Title = "fig33", "throughput vs number of racks"
	}
	return rep, err
}

func runFig34(quick bool) (*Report, error) {
	rep, err := rackSweep(func(r cluster.Result) string { return ms(r.ProcLatency.Mean) }, "ms")(quick)
	if rep != nil {
		rep.ID, rep.Title = "fig34", "processing latency vs number of racks"
	}
	return rep, err
}

// runAblationWaterline compares the §3.3 waterline rules against the
// baseline dynamic switch of Definition 3 (which only reacts when the
// queue has already reached l_w): the waterline rules trigger earlier, so
// the peak queue stays lower (Theorem 3).
func runAblationWaterline(quick bool) (*Report, error) {
	dur := sim.Time(125e7)
	if quick {
		dur = 5e8
	}
	run := func(tdown float64) cluster.Result {
		return cluster.Run(cluster.Config{
			Variant: cluster.Whale, Parallelism: 480, Adaptive: true,
			Params:      netmodel.DynamicProfile(),
			RateProfile: fig23Profile, Duration: dur, Q: 512,
			MonitorInterval: 5 * time.Millisecond,
			MaxTuples:       1 << 30, Seed: 11, TDownOverride: tdown,
		})
	}
	early := run(0.5) // paper's proactive rule
	late := run(1e12) // effectively "wait for l_w" (baseline dynamic switch)
	rep := &Report{
		ID: "ablation-waterline", Title: "negative scale-down rule vs baseline dynamic switch",
		Columns: []string{"policy", "peak queue", "drops", "switches", "mean latency ms"},
		Rows: [][]string{
			{"waterline rule (T_down=0.5)", fmt.Sprint(early.PeakQueue), fmt.Sprint(early.Drops), fmt.Sprint(early.Switches), ms(early.ProcLatency.Mean)},
			{"baseline (react at l_w)", fmt.Sprint(late.PeakQueue), fmt.Sprint(late.Drops), fmt.Sprint(late.Switches), ms(late.ProcLatency.Mean)},
		},
		Notes: []string{"Theorem 3: the proactive rule's maximum queue length is below the baseline's"},
	}
	return rep, nil
}

// runAblationSmoothing compares α-weighted input-rate smoothing against
// raw per-interval rates under the noisy step profile.
func runAblationSmoothing(quick bool) (*Report, error) {
	dur := sim.Time(125e7)
	if quick {
		dur = 5e8
	}
	run := func(alpha float64) cluster.Result {
		return cluster.Run(cluster.Config{
			Variant: cluster.Whale, Parallelism: 480, Adaptive: true,
			Params:      netmodel.DynamicProfile(),
			RateProfile: fig23Profile, Duration: dur, Q: 512,
			MonitorInterval: 5 * time.Millisecond,
			MaxTuples:       1 << 30, Seed: 11, AlphaOverride: alpha,
		})
	}
	smoothed := run(0.5)
	raw := run(1e-9) // α→0 disables history
	rep := &Report{
		ID: "ablation-smoothing", Title: "α-weighted smoothing vs raw rate estimation",
		Columns: []string{"estimator", "switches", "drops", "mean latency ms"},
		Rows: [][]string{
			{"α = 0.5 (paper §4)", fmt.Sprint(smoothed.Switches), fmt.Sprint(smoothed.Drops), ms(smoothed.ProcLatency.Mean)},
			{"raw rate (α ≈ 0)", fmt.Sprint(raw.Switches), fmt.Sprint(raw.Drops), ms(raw.ProcLatency.Mean)},
		},
		Notes: []string{"raw estimation reacts to Poisson noise with extra switches, each pausing the source"},
	}
	return rep, nil
}

// runAblationDstar fixes the non-blocking tree's out-degree cap at each
// value and shows the Theorem 1/2 trade-off the controller navigates: a
// larger d* multicasts faster (lower completion depth) but lowers the
// maximum affordable input rate of the source.
func runAblationDstar(quick bool) (*Report, error) {
	rep := &Report{
		ID: "ablation-dstar", Title: "fixed d* sweep: affordability vs multicast speed (Theorems 1-2)",
		Columns: []string{"d*", "tree depth", "throughput t/s", "mcast latency µs", "proc latency ms", "src CPU"},
	}
	caps := []int{1, 2, 3, 4, 5}
	if quick {
		caps = []int{1, 3, 5}
	}
	for _, d := range caps {
		res := desRun(cluster.Whale, 480, netmodel.Default30Node(), quick, func(c *cluster.Config) {
			c.Dstar = d
		})
		depth := queueing.CompletionTime(29, d) // 30 engaged workers, 29 dests
		rep.Rows = append(rep.Rows, []string{
			fmt.Sprint(d), fmt.Sprint(depth), f0(res.Throughput),
			us(res.McastLat.Mean), ms(res.ProcLatency.Mean), pct(res.SrcUtil),
		})
	}
	rep.Notes = append(rep.Notes,
		"Theorem 1: max affordable input rate ∝ 1/d0 (source CPU share rises with d*)",
		"Theorem 2: multicast capability grows with d0 (completion depth falls)")
	return rep, nil
}

// runExtScale extends the paper's Fig. 13 sweep beyond the testbed's
// 480-instance limit: past 16 instances per machine the cores
// oversubscribe, so Whale's throughput flattens and then declines — the
// regime the paper never measures (its cluster is exactly 30 x 16 cores).
func runExtScale(quick bool) (*Report, error) {
	rep := &Report{
		ID: "ext-scale", Title: "beyond the paper: parallelism past core saturation (30 machines x 16 cores)",
		Columns: []string{"parallelism", "instances/machine", "Whale t/s", "Whale latency ms", "Storm t/s"},
	}
	levels := []int{480, 720, 960, 1440}
	if quick {
		levels = []int{480, 960}
	}
	for _, n := range levels {
		whale := desRun(cluster.Whale, n, netmodel.Default30Node(), quick, nil)
		storm := desRun(cluster.Storm, n, netmodel.Default30Node(), quick, nil)
		rep.Rows = append(rep.Rows, []string{
			fmt.Sprint(n), fmt.Sprint((n + 29) / 30), f0(whale.Throughput),
			ms(whale.ProcLatency.Mean), f0(storm.Throughput),
		})
	}
	rep.Notes = append(rep.Notes,
		"beyond 480 instances the matching state per instance keeps shrinking, but cores oversubscribe: Whale's curve bends where the paper's sweep stops")
	return rep, nil
}
