package experiment

import (
	"fmt"
	"time"

	"cloudfog/internal/core"
	"cloudfog/internal/fault"
	"cloudfog/internal/health"
	"cloudfog/internal/metrics"
	"cloudfog/internal/obs"
	"cloudfog/internal/qoe"
	"cloudfog/internal/sim"
)

// HealthOptions selects the failure-handling apparatus of a resilience run.
// The zero value reproduces the pre-health behaviour bit-for-bit: orphan
// repairs use the oracle detection-delay draw and no overload ladder.
type HealthOptions struct {
	// Detector chooses how supernode failures are noticed: ModeOracle
	// (default) draws the repair delay, ModeTimeout and ModePhi run the
	// heartbeat monitor.
	Detector health.Mode
	// DetectorConfig tunes the monitor; zero-value fields use the package
	// defaults. Mode is overridden by Detector.
	DetectorConfig health.DetectorConfig
	// Overload installs the supernode degradation ladder on the fog.
	Overload bool
}

// healthStatsFor binds the canonical health metrics in the world's registry,
// when one is attached.
func healthStatsFor(w *World) *obs.HealthStats {
	if w.Cfg.Obs == nil {
		return nil
	}
	return obs.HealthStatsIn(w.Cfg.Obs)
}

// buildHealthFog mints a default-scale fog with the run's health apparatus
// installed against an arbitrary virtual-time source — the engine's Now for
// the serial figures, the shard runner's Clock for the scaling run.
// A zero HealthOptions builds exactly what NewFog builds: the health metrics
// are bound only for a ladder that counts into them.
func (w *World) buildHealthFog(now func() time.Duration, ho HealthOptions) (*core.Fog, error) {
	cc := w.Cfg.Core
	if w.Cfg.Obs != nil {
		cc.Obs = obs.AssignStatsIn(w.Cfg.Obs)
	}
	if ho.Overload {
		hs := healthStatsFor(w)
		ol, err := health.NewOverload(health.OverloadConfig{}, hs, now)
		if err != nil {
			return nil, err
		}
		cc.Health, cc.Overload = hs, ol
	}
	return core.BuildFog(cc, w.Datacenters(w.Cfg.Datacenters), w.SupernodeSet(w.Cfg.Supernodes),
		sim.NewRand(w.Cfg.Seed+200))
}

// newHealthFog is buildHealthFog on an engine clock plus the heartbeat
// monitor (returned separately, nil in oracle mode) riding that engine.
// loss feeds the schedule's loss windows into heartbeat delivery; it may be
// nil.
func (w *World) newHealthFog(engine *sim.Engine, ho HealthOptions, loss func(time.Duration) float64) (*core.Fog, *health.Monitor, error) {
	fog, err := w.buildHealthFog(engine.Now, ho)
	if err != nil {
		return nil, nil, err
	}
	var mon *health.Monitor
	if ho.Detector != health.ModeOracle {
		dc := ho.DetectorConfig
		dc.Mode = ho.Detector
		mon = health.NewMonitor(engine, dc, loss, healthStatsFor(w))
	}
	return fog, mon, nil
}

// DefaultChaosProfile is the built-in resilience scenario the figures (and
// the -faults-less chaos runs) use: half the supernodes crash and recover on
// exponential lifetimes with a 10-second detection heartbeat, a Gilbert–
// Elliott loss process burns bursts into the wire, latency spikes hit every
// stream, and a 3-minute bandwidth collapse halves every uplink.
func DefaultChaosProfile(seed int64) *fault.Profile {
	return &fault.Profile{
		Name:     "default-chaos",
		Seed:     seed,
		Duration: fault.Dur(10 * time.Minute),
		Specs: []fault.Spec{
			{Kind: fault.KindCrash, MTTF: fault.Dur(3 * time.Minute), MTTR: fault.Dur(90 * time.Second),
				Detect: fault.Dur(10 * time.Second), TargetFrac: 0.5},
			{Kind: fault.KindLoss, MeanGood: fault.Dur(time.Minute), MeanBad: fault.Dur(10 * time.Second),
				LossFrac: 0.25},
			{Kind: fault.KindLatency, MeanGood: fault.Dur(90 * time.Second), MeanBad: fault.Dur(15 * time.Second),
				Extra: fault.Dur(40 * time.Millisecond)},
			{Kind: fault.KindBandwidth, Start: fault.Dur(3 * time.Minute), End: fault.Dur(6 * time.Minute),
				Factor: 0.5},
		},
	}
}

// ResilienceProfile resolves the profile a resilience figure runs: the
// caller-supplied one, or the built-in chaos scenario keyed by the world
// seed so the run stays a pure function of (seed, options). Exported so the
// flight recorder can compile and fingerprint the exact injected-event log
// figchurn and figrecovery will replay.
func ResilienceProfile(w *World, o RunOptions) *fault.Profile {
	if o.Faults != nil {
		return o.Faults
	}
	return DefaultChaosProfile(w.Cfg.Seed + 600)
}

// churnRateProfile is one figchurn point: rate supernode kills per minute at
// a fixed repair time and detection heartbeat.
func churnRateProfile(seed int64, duration time.Duration, rate float64) *fault.Profile {
	return &fault.Profile{
		Name:     "churn-rate",
		Seed:     seed,
		Duration: fault.Dur(duration),
		Specs: []fault.Spec{{
			Kind:   fault.KindCrash,
			Period: fault.Dur(time.Duration(float64(time.Minute) / rate)),
			MTTR:   fault.Dur(2 * time.Minute),
			Detect: fault.Dur(15 * time.Second),
		}},
	}
}

// faultStatsFor binds the canonical fault metrics in the world's registry,
// when one is attached.
func faultStatsFor(w *World) *obs.FaultStats {
	if w.Cfg.Obs == nil {
		return nil
	}
	return obs.FaultStatsIn(w.Cfg.Obs)
}

// FaultTargets enumerates the world's supernodes as fault-injection targets.
func (w *World) FaultTargets() fault.Targets {
	t := fault.Targets{Supernodes: make([]fault.Node, len(w.snSpec))}
	for i, sp := range w.snSpec {
		t.Supernodes[i] = fault.Node{ID: sp.id, X: sp.pos.X, Y: sp.pos.Y}
	}
	return t
}

// Respawner returns the fault injector's respawn function, minting fresh
// supernode instances from the world's immutable specs.
func (w *World) Respawner() func(id int64) *core.Supernode {
	specs := make(map[int64]snSpec, len(w.snSpec))
	for _, sp := range w.snSpec {
		specs[sp.id] = sp
	}
	return func(id int64) *core.Supernode {
		sp, ok := specs[id]
		if !ok {
			return nil
		}
		return core.NewSupernode(sp.id, sp.pos, sp.capacity, sp.uplink)
	}
}

// QoEVsChurn sweeps the supernode kill rate and measures the flow-level
// quality the fog sustains: the time-averaged fraction of players inside
// their game's latency budget (coverage), the fraction still served by
// supernodes, and the fraction caught unserved between a kill and its
// detected repair. Rate 0 is the fault-free baseline point. Each rate is an
// independent sweep point, deterministic in (seed, rate) alone, so serial
// and parallel sweeps agree bitwise. A zero ho keeps the run bit-identical
// to the pre-health figure.
func QoEVsChurn(w *World, rates []float64, duration time.Duration, ho HealthOptions) ([]metrics.Series, error) {
	coverage := metrics.Series{Label: "coverage", Points: make([]metrics.Point, len(rates))}
	fogServed := metrics.Series{Label: "fog-served", Points: make([]metrics.Point, len(rates))}
	unserved := metrics.Series{Label: "unserved", Points: make([]metrics.Point, len(rates))}
	err := w.sweepPoints(len(rates), func(pw *World, i int) error {
		rate := rates[i]
		engine := sim.New()
		fog, mon, err := pw.newHealthFog(engine, ho, nil)
		if err != nil {
			return err
		}
		players := pw.JoinAll(fog, pw.Cfg.Players)

		// The fault-free point is a nil schedule: a monitor still runs, so
		// its heartbeat traffic and zero-false-positive behaviour are
		// measured.
		var sched *fault.Schedule
		if rate > 0 {
			sched, err = fault.Compile(churnRateProfile(pw.Cfg.Seed+601, duration, rate), pw.FaultTargets())
			if err != nil {
				return err
			}
		}
		inj := fault.StartInjector(sched, engine, fog, pw.Respawner(),
			sim.NewRand(pw.Cfg.Seed+602), faultStatsFor(pw), mon)

		var samples int
		var covSum, fogSum, unsSum float64
		engine.Every(15*time.Second, func() {
			if ho.Overload {
				fog.RelieveOverloaded()
			}
			c := fog.Census(players)
			n := float64(len(players))
			samples++
			covSum += float64(c.Within) / n
			fogSum += float64(c.FogServed) / n
			unsSum += float64(c.Unserved) / n
		})
		engine.RunUntil(duration)
		inj.Finish()
		if samples > 0 {
			coverage.Points[i] = metrics.Point{X: rate, Y: covSum / float64(samples)}
			fogServed.Points[i] = metrics.Point{X: rate, Y: fogSum / float64(samples)}
			unserved.Points[i] = metrics.Point{X: rate, Y: unsSum / float64(samples)}
		}
		pw.LeaveAll(fog, players)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return []metrics.Series{coverage, fogServed, unserved}, nil
}

// RecoveryTimeline replays a full chaos profile against the fog and samples
// the served and fog-served player fractions over time — the recovery
// timeline around each kill and repair. After the timeline it runs the
// segment-level QoE simulation over the surviving attachments with the same
// schedule modulating the wire (loss bursts, latency spikes, bandwidth
// collapse), so a chaos run exercises the full segment ledger; the summary
// rides back in the figure title.
func RecoveryTimeline(w *World, profile *fault.Profile, qoeHorizon time.Duration, ho HealthOptions) ([]metrics.Series, string, error) {
	var series []metrics.Series
	var title string
	err := w.sweepPoints(1, func(pw *World, _ int) error {
		sched, err := fault.Compile(profile, pw.FaultTargets())
		if err != nil {
			return err
		}
		engine := sim.New()
		// Heartbeat frames ride the same impaired wire as video: the
		// schedule's loss windows drop them too.
		fog, mon, err := pw.newHealthFog(engine, ho, sched.LossFrac)
		if err != nil {
			return err
		}
		players := pw.JoinAll(fog, pw.Cfg.Players)

		inj := fault.StartInjector(sched, engine, fog, pw.Respawner(),
			sim.NewRand(pw.Cfg.Seed+603), faultStatsFor(pw), mon)

		duration := profile.Duration.Duration
		step := duration / 60
		if step < time.Second {
			step = time.Second
		}
		served := metrics.Series{Label: "served"}
		fogServed := metrics.Series{Label: "fog-served"}
		engine.Every(step, func() {
			if ho.Overload {
				fog.RelieveOverloaded()
			}
			c := fog.Census(players)
			t := engine.Now().Seconds()
			n := float64(len(players))
			served.Add(t, float64(c.Served)/n)
			fogServed.Add(t, float64(c.FogServed)/n)
		})
		engine.RunUntil(duration)
		inj.Finish()

		// Segment-level pass over the post-chaos attachments: the schedule
		// modulates every wire from its own t=0, so the QoE horizon
		// re-experiences the profile's first impairment windows.
		qopts := qoe.DefaultOptions()
		qopts.Seed = pw.Cfg.Seed + 604
		qopts.Impair = sched
		sum, err := groupRun(pw, fog, players, qopts, qoeHorizon)
		if err != nil {
			return err
		}
		title = fmt.Sprintf(
			"Recovery timeline (%s): %d kills, %d orphans, post-chaos continuity %.3f",
			profile.Name, inj.Killed(), inj.Orphaned(), sum.MeanContinuity)
		if mon != nil {
			title += fmt.Sprintf(" — %s detector: %d/%d detected (mean %.2fs), %d false positives",
				ho.Detector, inj.Detected(), inj.Killed(),
				inj.MeanDetectionLatency().Seconds(), inj.FalsePositives())
		}
		series = []metrics.Series{served, fogServed}
		pw.LeaveAll(fog, players)
		return nil
	})
	if err != nil {
		return nil, "", err
	}
	return series, title, nil
}
