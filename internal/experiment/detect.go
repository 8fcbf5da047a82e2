package experiment

import (
	"fmt"
	"time"

	"cloudfog/internal/fault"
	"cloudfog/internal/health"
	"cloudfog/internal/metrics"
	"cloudfog/internal/sim"
)

// detectKillEvery is the figdetect crash cadence: one supernode kill every
// 30 seconds, so every sweep point sees the same injected-failure workload
// whatever its heartbeat interval.
const detectKillEvery = 30 * time.Second

// detectDuration is the virtual time each figdetect point simulates.
const detectDuration = 10 * time.Minute

// detectProfile is one figdetect point's fault workload: periodic crashes
// with a repair window long enough that detection always precedes recovery.
// The Detect field sizes the oracle's draw window to the timeout detector's
// budget (TimeoutFactor heartbeat intervals), so all three modes answer the
// same question: how long does this failure stay unnoticed?
func detectProfile(seed int64, interval time.Duration) *fault.Profile {
	oracleWindow := time.Duration(3.5 * float64(interval))
	return &fault.Profile{
		Name:     "detect",
		Seed:     seed,
		Duration: fault.Dur(detectDuration),
		Specs: []fault.Spec{{
			Kind:   fault.KindCrash,
			Period: fault.Dur(detectKillEvery),
			MTTR:   fault.Dur(3 * time.Minute),
			Detect: fault.Dur(oracleWindow),
		}},
	}
}

// DetectionLatency is the figdetect figure: the mean failure-detection
// latency as the heartbeat interval grows, for the oracle baseline (drawn
// delays), the plain timeout detector, and the phi-accrual detector, all
// against the same per-interval crash schedule. Every (interval, mode) pair
// is an independent sweep point deterministic in (seed, interval, mode), so
// serial and parallel sweeps agree bitwise. The returned title carries the
// detection ledger: kills, detections and false positives per mode.
func DetectionLatency(w *World, intervals []time.Duration) ([]metrics.Series, string, error) {
	modes := []health.Mode{health.ModeOracle, health.ModeTimeout, health.ModePhi}
	series := make([]metrics.Series, len(modes))
	for i, m := range modes {
		series[i].Label = m.String()
		series[i].Points = make([]metrics.Point, len(intervals))
	}
	// Per-point ledger cells: sweep workers write disjoint indices, the
	// title sums them after the barrier.
	kills := make([]int64, len(intervals)*len(modes))
	detected := make([]int64, len(intervals)*len(modes))
	falsePos := make([]int64, len(intervals)*len(modes))

	err := w.sweepPoints(len(intervals)*len(modes), func(pw *World, pt int) error {
		ii, mi := pt/len(modes), pt%len(modes)
		interval, mode := intervals[ii], modes[mi]

		engine := sim.New()
		fog, mon, err := pw.newHealthFog(engine, HealthOptions{
			Detector:       mode,
			DetectorConfig: health.DetectorConfig{Interval: interval},
		}, nil)
		if err != nil {
			return err
		}
		players := pw.JoinAll(fog, pw.Cfg.Players)

		sched, err := fault.Compile(detectProfile(pw.Cfg.Seed+700, interval), pw.FaultTargets())
		if err != nil {
			return err
		}
		inj := fault.StartInjector(sched, engine, fog, pw.Respawner(),
			sim.NewRand(pw.Cfg.Seed+701), faultStatsFor(pw), mon)
		engine.RunUntil(detectDuration)
		inj.Finish()

		series[mi].Points[ii] = metrics.Point{
			X: interval.Seconds(),
			Y: inj.MeanDetectionLatency().Seconds(),
		}
		kills[pt] = inj.Killed()
		detected[pt] = inj.Detected()
		falsePos[pt] = inj.FalsePositives()
		pw.LeaveAll(fog, players)
		return nil
	})
	if err != nil {
		return nil, "", err
	}

	perMode := func(cells []int64, mi int) int64 {
		var s int64
		for ii := range intervals {
			s += cells[ii*len(modes)+mi]
		}
		return s
	}
	var totalKills int64
	for _, k := range kills {
		totalKills += k
	}
	title := fmt.Sprintf(
		"Failure detection latency (%d kills): timeout %d/%d detected (%d FP), phi %d/%d detected (%d FP)",
		totalKills,
		perMode(detected, 1), perMode(kills, 1), perMode(falsePos, 1),
		perMode(detected, 2), perMode(kills, 2), perMode(falsePos, 2))
	return series, title, nil
}
