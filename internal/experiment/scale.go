package experiment

import (
	"fmt"
	"time"

	"cloudfog/internal/fault"
	"cloudfog/internal/metrics"
	"cloudfog/internal/qoe"
	"cloudfog/internal/shard"
)

// scaleChaosProfile is the fault scenario the scaling figure replays: brisk
// supernode crash/recovery churn with a 10-second detection window, a light
// Gilbert–Elliott loss process, and periodic latency spikes, which the
// runner's node simulations read through the schedule by time. It has no
// bandwidth spec; the figure hashes pinned in bench/ are recorded without one.
func scaleChaosProfile(seed int64, duration time.Duration) *fault.Profile {
	return &fault.Profile{
		Name:     "scale-chaos",
		Seed:     seed,
		Duration: fault.Dur(duration),
		Specs: []fault.Spec{
			{Kind: fault.KindCrash, MTTF: fault.Dur(45 * time.Second), MTTR: fault.Dur(20 * time.Second),
				Detect: fault.Dur(10 * time.Second), TargetFrac: 0.3},
			{Kind: fault.KindLoss, MeanGood: fault.Dur(90 * time.Second), MeanBad: fault.Dur(8 * time.Second),
				LossFrac: 0.15},
			{Kind: fault.KindLatency, MeanGood: fault.Dur(2 * time.Minute), MeanBad: fault.Dur(12 * time.Second),
				Extra: fault.Dur(30 * time.Millisecond)},
		},
	}
}

// ScaleProfile returns the fault scenario the scaling figure replays for
// this world and options — exported so the flight recorder can compile and
// fingerprint the same injected-event log the run will interpret.
func ScaleProfile(w *World, o RunOptions) *fault.Profile {
	// A negative horizon stays in the profile, and Compile refuses it; ScaleRun
	// refuses what filled does.
	o, _ = o.filled()
	return scaleChaosProfile(w.Cfg.Seed+700, o.Horizon)
}

// ScaleRun executes the single-run scaling experiment (figscale): the whole
// population joins one fog, the scale chaos profile churns the supernodes
// through the runner's injector (and heartbeat monitor, unless the detector
// is the oracle), and beside them a budgeted sample of segment-level node
// simulations is shared among Cfg.Shards workers, an epoch at a time. The
// injector's tallies join the world's fault ledger. The figure series —
// served, fog-served, unserved, and latency-coverage fractions over time —
// everything in the returned FigureResult and every tally of the
// shard.Result are byte-identical at any worker count, including the serial
// anchor Shards=1.
func ScaleRun(w *World, o RunOptions) (shard.Result, FigureResult, error) {
	o, err := o.filled()
	if err != nil {
		return shard.Result{}, FigureResult{}, err
	}
	ho, err := o.healthOptions()
	if err != nil {
		return shard.Result{}, FigureResult{}, err
	}
	clk := &shard.Clock{}
	fog, err := w.buildHealthFog(clk.Now, ho)
	if err != nil {
		return shard.Result{}, FigureResult{}, err
	}
	players := w.JoinAll(fog, w.Cfg.Players)
	sched, err := fault.Compile(scaleChaosProfile(w.Cfg.Seed+700, o.Horizon), w.FaultTargets())
	if err != nil {
		return shard.Result{}, FigureResult{}, err
	}
	qopts := qoe.DefaultOptions()
	qopts.Seed = w.Cfg.Seed + 701
	// Each epoch is simulated as a fresh session, so the warmup transient
	// scales with the barrier interval instead of eating short epochs
	// whole.
	qopts.Warmup = o.ScaleEpoch / 5
	cfg := shard.Config{
		Shards:         w.Cfg.Shards,
		Seed:           w.Cfg.Seed,
		Horizon:        o.Horizon,
		Epoch:          o.ScaleEpoch,
		Detector:       ho.Detector,
		DetectorConfig: ho.DetectorConfig,
		Overload:       ho.Overload,
		QoE:            qopts,
		QoENodeBudget:  o.ScaleNodeBudget,
	}
	runner := shard.NewRunner(cfg, fog, players, sched, w.Respawner(), clk)
	res, err := runner.Run()
	if err != nil {
		return res, FigureResult{}, err
	}
	w.LeaveAll(fog, players)
	if fs := faultStatsFor(w); fs != nil {
		fs.Kills.Add(res.Kills)
		fs.Recoveries.Add(res.Recoveries)
		fs.Orphaned.Add(res.Orphaned)
		fs.Lapsed.Add(res.Lapsed)
		fs.PendingEnd.Add(res.PendingEnd)
	}
	if o.ScaleDiag != nil {
		o.ScaleDiag(res)
	}

	served := metrics.Series{Label: "served"}
	fogServed := metrics.Series{Label: "fog-served"}
	unserved := metrics.Series{Label: "unserved"}
	coverage := metrics.Series{Label: "coverage"}
	n := float64(res.Players)
	for _, s := range res.Samples {
		t := s.T.Seconds()
		served.Add(t, float64(s.Served)/n)
		fogServed.Add(t, float64(s.FogServed)/n)
		unserved.Add(t, float64(s.Unserved)/n)
		coverage.Add(t, float64(s.Within)/n)
	}
	// The title carries tallies only, so the whole FigureResult compares
	// bytewise across worker counts.
	title := fmt.Sprintf(
		"Scaling run (%d players, %d epochs): %d kills, %d detections (mean %.2fs), %d repairs, %d lapsed, %d cloud hops, sampled continuity %.3f over %d players",
		res.Players, res.Epochs, res.Kills, res.Detections,
		res.MeanDetection.Seconds(), res.Repairs, res.Lapsed,
		res.CloudHops, res.MeanContinuity, res.QoEPlayers)
	fig := FigureResult{
		Name:   "figscale",
		Title:  title,
		XLabel: "t (s)",
		Series: []metrics.Series{served, fogServed, unserved, coverage},
	}
	return res, fig, nil
}
