// Per-figure regeneration benchmarks. Each BenchmarkFigXX runs the
// experiment behind one figure or table of the CloudFog paper's evaluation
// at a reduced scale (so `go test -bench=.` completes in minutes) and
// reports the figure's headline quantity via b.ReportMetric, giving a
// recorded shape check alongside the timing. cmd/cloudfog-sim prints the
// full-scale tables.
package cloudfog_test

import (
	"sync"
	"testing"
	"time"

	"cloudfog/internal/adapt"
	"cloudfog/internal/core"
	"cloudfog/internal/experiment"
	"cloudfog/internal/game"
	"cloudfog/internal/geo"
	"cloudfog/internal/metrics"
	"cloudfog/internal/qoe"
	"cloudfog/internal/sched"
	"cloudfog/internal/sim"
)

// benchWorld is shared across benchmarks: 2,500 players, 200 supernodes,
// 20 edge servers — the paper's proportions at a quarter scale.
var (
	worldOnce sync.Once
	benchW    *experiment.World
)

func simWorld(b *testing.B) *experiment.World {
	b.Helper()
	worldOnce.Do(func() {
		cfg := experiment.Default(2026)
		cfg.Players = 2500
		cfg.Supernodes = 200
		cfg.EdgeServers = 20
		w, err := experiment.NewWorld(cfg)
		if err != nil {
			panic(err)
		}
		benchW = w
	})
	return benchW
}

func benchReqs() []time.Duration {
	return []time.Duration{30 * time.Millisecond, 70 * time.Millisecond, 110 * time.Millisecond}
}

func seriesAt(s metrics.Series, x float64) float64 {
	for _, p := range s.Points {
		if p.X == x {
			return p.Y
		}
	}
	return -1
}

// BenchmarkFig2QualityLadder pins the Figure 2 table lookups the whole
// system builds on.
func BenchmarkFig2QualityLadder(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for req := 30 * time.Millisecond; req <= 110*time.Millisecond; req += 20 * time.Millisecond {
			q := game.HighestLevelWithin(req)
			if q.Level < 1 {
				b.Fatal("ladder lookup failed")
			}
		}
	}
	b.ReportMetric(game.AdjustUpFactor(), "beta")
}

// BenchmarkFig3RateAdaptation drives the §III-B controller through the
// congestion episode of Figure 3.
func BenchmarkFig3RateAdaptation(b *testing.B) {
	g, _ := game.ByID(4)
	downs := 0
	for i := 0; i < b.N; i++ {
		var ctrl adapt.Controller
		ctrl.Init(adapt.DefaultConfig(), g)
		for t := 0; t < 200; t++ {
			r := 2.0
			if t > 50 && t < 120 {
				r = 0.1 // congestion
			}
			if ctrl.Observe(r) == adapt.AdjustedDown {
				downs++
			}
		}
	}
	b.ReportMetric(float64(downs)/float64(b.N), "downs/run")
}

// BenchmarkFig4DropAllocation runs Eq. 14's allocation on Figure 4's
// worked example.
func BenchmarkFig4DropAllocation(b *testing.B) {
	weights := []float64{0.6 * 0.5, 0.2 * 1.0, 0.5 * 0.2}
	budgets := []int{10, 10, 10}
	var alloc []int
	for i := 0; i < b.N; i++ {
		alloc = sched.AllocateDrops(weights, budgets, 6)
	}
	b.ReportMetric(float64(alloc[0]), "d1")
	b.ReportMetric(float64(alloc[1]), "d2")
	b.ReportMetric(float64(alloc[2]), "d3")
}

func BenchmarkFig5aCoverageVsDatacenters(b *testing.B) {
	w := simWorld(b)
	var series []metrics.Series
	for i := 0; i < b.N; i++ {
		var err error
		series, err = experiment.CoverageVsDatacenters(w, []int{1, 5, 25}, benchReqs())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(seriesAt(series[len(series)-1], 5), "coverage@5dc/110ms")
	b.ReportMetric(seriesAt(series[len(series)-1], 25), "coverage@25dc/110ms")
}

func BenchmarkFig5bCoverageVsSupernodes(b *testing.B) {
	w := simWorld(b)
	var series []metrics.Series
	for i := 0; i < b.N; i++ {
		var err error
		series, err = experiment.CoverageVsSupernodes(w, []int{0, 100, 200}, benchReqs())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(seriesAt(series[len(series)-1], 0), "coverage@0sn/110ms")
	b.ReportMetric(seriesAt(series[len(series)-1], 200), "coverage@200sn/110ms")
}

func BenchmarkFig7aBandwidthSim(b *testing.B) {
	w := simWorld(b)
	var series []metrics.Series
	for i := 0; i < b.N; i++ {
		var err error
		series, err = experiment.BandwidthVsPlayers(w, []int{1250, 2500})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(seriesAt(series[0], 2500), "cloud-mbps@2500")
	b.ReportMetric(seriesAt(series[2], 2500), "cloudfog-mbps@2500")
}

func BenchmarkFig8aLatencySim(b *testing.B) {
	w := simWorld(b)
	var results []experiment.LatencyResult
	for i := 0; i < b.N; i++ {
		var err error
		results, err = experiment.ResponseLatency(w)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range results {
		b.ReportMetric(float64(r.Mean.Milliseconds()), r.System+"-ms")
	}
}

func BenchmarkFig9aContinuitySim(b *testing.B) {
	w := simWorld(b)
	var series []metrics.Series
	for i := 0; i < b.N; i++ {
		var err error
		series, err = experiment.ContinuityVsPlayers(w, []int{400}, 8*time.Second)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, s := range series {
		b.ReportMetric(seriesAt(s, 400), s.Label+"@400")
	}
}

func BenchmarkFig10aAdaptationSim(b *testing.B) {
	w := simWorld(b)
	var series []metrics.Series
	for i := 0; i < b.N; i++ {
		var err error
		series, err = experiment.AdaptationEffect(w, []int{5, 30}, 40*time.Second)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(seriesAt(series[0], 30), "basic@30")
	b.ReportMetric(seriesAt(series[1], 30), "adapt@30")
}

func BenchmarkFig11aSchedulingSim(b *testing.B) {
	w := simWorld(b)
	var series []metrics.Series
	for i := 0; i < b.N; i++ {
		var err error
		series, err = experiment.SchedulingEffect(w, []int{5, 30}, 40*time.Second)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(seriesAt(series[0], 30), "basic@30")
	b.ReportMetric(seriesAt(series[1], 30), "sched@30")
}

// --- Ablation benchmarks (design choices called out in DESIGN.md §5) ---

func ablationScenario(b *testing.B) (int64, []qoe.PlayerSpec) {
	b.Helper()
	return simWorld(b).SupernodeScenario(30)
}

// BenchmarkAblationFIFOvsEDF compares the sender queue disciplines under
// load: a plain FIFO against Deadline's EDF ordering with deadline drops.
func BenchmarkAblationFIFOvsEDF(b *testing.B) {
	uplink, specs := ablationScenario(b)
	run := func(edf bool) float64 {
		opts := qoe.BasicOptions()
		opts.Sched.Deadline = edf
		res, err := qoe.RunNode(opts, uplink, specs, 30*time.Second)
		if err != nil {
			b.Fatal(err)
		}
		return qoe.Summarize(res).SatisfiedFrac
	}
	var fifo, edf float64
	for i := 0; i < b.N; i++ {
		fifo = run(false)
		edf = run(true)
	}
	b.ReportMetric(fifo, "fifo-satisfied")
	b.ReportMetric(edf, "edf-satisfied")
}

// BenchmarkAblationDropPolicy compares Eq. 14's tolerance-weighted drops
// against uniform drops.
func BenchmarkAblationDropPolicy(b *testing.B) {
	uplink, specs := ablationScenario(b)
	run := func(uniform bool) float64 {
		opts := qoe.BasicOptions()
		opts.Sched.Deadline = true
		opts.Sched.UniformDrop = uniform
		res, err := qoe.RunNode(opts, uplink, specs, 30*time.Second)
		if err != nil {
			b.Fatal(err)
		}
		return qoe.Summarize(res).SatisfiedFrac
	}
	var eq14, uniform float64
	for i := 0; i < b.N; i++ {
		eq14 = run(false)
		uniform = run(true)
	}
	b.ReportMetric(eq14, "eq14-satisfied")
	b.ReportMetric(uniform, "uniform-satisfied")
}

// BenchmarkAblationHysteresis sweeps the consecutive-estimation lengths
// h1/h2 of the adaptation controller.
func BenchmarkAblationHysteresis(b *testing.B) {
	uplink, specs := ablationScenario(b)
	run := func(h1, h2 int) float64 {
		opts := qoe.BasicOptions()
		opts.Adaptation = true
		opts.Adapt.UpStreak = h1
		opts.Adapt.DownStreak = h2
		res, err := qoe.RunNode(opts, uplink, specs, 30*time.Second)
		if err != nil {
			b.Fatal(err)
		}
		return qoe.Summarize(res).SatisfiedFrac
	}
	var paper, twitchy float64
	for i := 0; i < b.N; i++ {
		paper = run(100, 10) // paper defaults
		twitchy = run(3, 1)  // no hysteresis
	}
	b.ReportMetric(paper, "h100-10-satisfied")
	b.ReportMetric(twitchy, "h3-1-satisfied")
}

// BenchmarkAblationRho toggles the latency-tolerance scaling of the
// adaptation thresholds.
func BenchmarkAblationRho(b *testing.B) {
	uplink, specs := ablationScenario(b)
	run := func(useRho bool) float64 {
		opts := qoe.BasicOptions()
		opts.Adaptation = true
		opts.Adapt.UseRho = useRho
		res, err := qoe.RunNode(opts, uplink, specs, 30*time.Second)
		if err != nil {
			b.Fatal(err)
		}
		return qoe.Summarize(res).SatisfiedFrac
	}
	var with, without float64
	for i := 0; i < b.N; i++ {
		with = run(true)
		without = run(false)
	}
	b.ReportMetric(with, "rho-satisfied")
	b.ReportMetric(without, "norho-satisfied")
}

// BenchmarkAblationGeoError sweeps the IP-geolocation error and reports its
// effect on fog coverage.
func BenchmarkAblationGeoError(b *testing.B) {
	w := simWorld(b)
	run := func(sigma float64) float64 {
		cfg := w.Cfg
		cfg.Core.Locator.ErrorSigma = sigma
		w2, err := experiment.NewWorld(cfg)
		if err != nil {
			b.Fatal(err)
		}
		series, err := experiment.CoverageVsSupernodes(w2, []int{200}, []time.Duration{110 * time.Millisecond})
		if err != nil {
			b.Fatal(err)
		}
		return seriesAt(series[0], 200)
	}
	var exact, noisy float64
	for i := 0; i < b.N; i++ {
		exact = run(0)
		noisy = run(300)
	}
	b.ReportMetric(exact, "coverage-exact")
	b.ReportMetric(noisy, "coverage-300km-err")
}

// BenchmarkAblationBackups measures supernode-departure failover with the
// recorded-backup fast path versus full reassignment.
func BenchmarkAblationBackups(b *testing.B) {
	cfg := core.DefaultConfig(5)
	region := cfg.Region
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dcs := []*core.Datacenter{core.NewDatacenter(2_000_000, region.Center(), cfg.DCEgress)}
		sns := make([]*core.Supernode, 40)
		for j := range sns {
			pos := region.Clamp(geo.Point{X: region.Center().X + float64(j*12), Y: region.Center().Y})
			sns[j] = core.NewSupernode(1_000_000+int64(j), pos, 5, 5*cfg.UplinkPerSlot)
		}
		fog, err := core.BuildFog(cfg, dcs, sns, sim.NewRand(6))
		if err != nil {
			b.Fatal(err)
		}
		g, _ := game.ByID(5)
		players := make([]*core.Player, 100)
		for j := range players {
			players[j] = &core.Player{
				ID:       int32(j),
				Pos:      region.Clamp(geo.Point{X: region.Center().X + float64(j*5), Y: region.Center().Y + 10}),
				GameID:   uint8(g.ID),
				Downlink: 20_000_000,
			}
			fog.Join(players[j])
		}
		b.StartTimer()
		for _, sn := range sns[:10] {
			fog.DeregisterSupernode(sn.ID)
		}
	}
}

// --- Substrate microbenchmarks bench/layers.go has no probe for ---

func BenchmarkAllocateDrops(b *testing.B) {
	weights := make([]float64, 64)
	budgets := make([]int, 64)
	for i := range weights {
		weights[i] = float64(i%5+1) / 10
		budgets[i] = i % 7
	}
	for i := 0; i < b.N; i++ {
		sched.AllocateDrops(weights, budgets, 50)
	}
}
