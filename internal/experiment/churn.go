package experiment

import (
	"fmt"
	"time"

	"cloudfog/internal/core"
	"cloudfog/internal/econ"
	"cloudfog/internal/fault"
	"cloudfog/internal/metrics"
	"cloudfog/internal/sim"
	"cloudfog/internal/workload"
)

// ChurnResult summarizes a churn-driven run of the fog.
type ChurnResult struct {
	// Sessions started and ended during the run.
	Joins, Leaves uint64
	// SupernodeDepartures counts supernode departures injected.
	SupernodeDepartures int
	// Orphaned counts players orphaned by those departures; every one was
	// repaired synchronously (graceful leaves detect instantly).
	Orphaned int64
	// MeanOnline is the time-averaged concurrent player count.
	MeanOnline float64
	// FogServedFrac is the time-averaged fraction of online players
	// served by supernodes (the rest stream from the cloud).
	FogServedFrac float64
	// MeanLatency is the time-averaged mean network latency of online
	// players.
	MeanLatency time.Duration
	// Unserved counts online players found without a serving attachment
	// at any sample point — must be zero: failover repairs departures.
	Unserved int
}

// churnProfile is the fault profile the classic churn dynamics compile to:
// one supernode departs per period and re-registers five minutes later; zero
// detection delay makes the departures graceful (synchronous failover), the
// behavior this function has always modeled.
func churnProfile(seed int64, duration, departEvery time.Duration) *fault.Profile {
	return &fault.Profile{
		Name:     "churn",
		Seed:     seed,
		Duration: fault.Dur(duration),
		Specs: []fault.Spec{{
			Kind:   fault.KindCrash,
			Period: fault.Dur(departEvery),
			MTTR:   fault.Dur(5 * time.Minute),
		}},
	}
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

// ChurnDynamics runs the fog under the paper's session churn (Poisson joins
// at 5 players/second, session-length mixture, friend-driven game choice)
// while supernodes periodically depart and re-register through the fault
// subsystem, exercising the backup-failover path. Metrics are sampled every
// minute of virtual time after a warmup.
func ChurnDynamics(w *World, duration time.Duration, departEvery time.Duration) (ChurnResult, error) {
	engine := sim.New()
	fog, err := w.NewFog(w.Cfg.Datacenters, w.Cfg.Supernodes)
	if err != nil {
		return ChurnResult{}, err
	}

	res := ChurnResult{}
	var inj *fault.Injector
	if departEvery > 0 {
		sched, err := fault.Compile(churnProfile(w.Cfg.Seed+501, duration, departEvery), w.FaultTargets())
		if err != nil {
			return ChurnResult{}, fmt.Errorf("experiment: churn profile: %w", err)
		}
		inj = fault.StartInjector(sched, engine, fog, w.Respawner(),
			sim.NewRand(w.Cfg.Seed+503), nil, nil)
	}

	churn := workload.NewChurn(engine, fog, w.Pop, 5, sim.NewRand(w.Cfg.Seed+500))
	churn.Start()

	warmup := duration / 5
	var samples int
	var onlineSum, fogFracSum float64
	var latSum time.Duration
	engine.Every(time.Minute, func() {
		if engine.Now() < warmup {
			return
		}
		online, fogServed := 0, 0
		var lat time.Duration
		for _, p := range w.Pop.Players {
			if !p.Online {
				continue
			}
			online++
			if !p.Attached.Served() {
				res.Unserved++
				continue
			}
			if p.Attached.Kind == core.AttachSupernode {
				fogServed++
			}
			lat += fog.NetworkLatency(p)
		}
		if online == 0 {
			return
		}
		samples++
		onlineSum += float64(online)
		fogFracSum += float64(fogServed) / float64(online)
		latSum += lat / time.Duration(online)
	})

	engine.RunUntil(duration)

	res.Joins = churn.Joins()
	res.Leaves = churn.Leaves()
	if inj != nil {
		inj.Finish()
		res.SupernodeDepartures = int(inj.Killed())
		res.Orphaned = inj.Orphaned()
	}
	if samples > 0 {
		res.MeanOnline = onlineSum / float64(samples)
		res.FogServedFrac = fogFracSum / float64(samples)
		res.MeanLatency = latSum / time.Duration(samples)
	}

	// Restore the population for subsequent experiments.
	for _, p := range w.Pop.Players {
		if p.Online {
			fog.Leave(p)
		}
	}
	return res, nil
}

// IncentiveResult is one reward-rate point of the §III-A incentive study.
type IncentiveResult struct {
	RewardPerUnit float64
	// Willing is the fraction of the fog's supernodes whose contributors
	// profit at this reward rate (Eq. 1 > 0).
	Willing float64
	// ProviderSaving is C_g (Eq. 3) for the fog-served players, counting
	// only the willing supernodes' contribution.
	ProviderSaving float64
}

// IncentiveEvaluation runs the §IV promise ("we will evaluate the
// effectiveness of this incentive mechanism"): join the population onto the
// fog, read each supernode's actual uplink utilization, and sweep the
// reward rate c_s to see how many contributors profit (Eq. 1) and what the
// provider saves (Eq. 3). Bandwidth is accounted in Mbit/s units; costs
// default to 0.2–1.0 units per contributor.
func IncentiveEvaluation(w *World, rewards []float64) ([]IncentiveResult, error) {
	fog, err := w.NewFog(w.Cfg.Datacenters, w.Cfg.Supernodes)
	if err != nil {
		return nil, err
	}
	players := w.JoinAll(fog, w.Cfg.Players)
	defer w.LeaveAll(fog, players)

	utils := fog.SupernodeUtilizations()
	costRng := sim.NewRand(w.Cfg.Seed + 502)
	sns := make([]econ.Supernode, 0, len(utils))
	fogServed := 0
	for _, sn := range fog.Supernodes() {
		sns = append(sns, econ.Supernode{
			Capacity:    float64(sn.Uplink) / 1e6, // Mbit/s units
			Utilization: utils[sn.ID],
			Cost:        0.2 + 0.8*costRng.Float64(),
		})
		fogServed += sn.Load()
	}
	// Stream rate R: mean wire rate across the ladder-matched games.
	meanBitrate := 0.0
	for _, p := range players {
		meanBitrate += float64(w.Cfg.Core.WireRate(p.Game.Quality().Bitrate)) / 1e6
	}
	meanBitrate /= float64(len(players))
	params := econ.Params{
		RevenuePerUnit: 1.0,
		StreamRate:     meanBitrate,
		UpdateRate:     float64(w.Cfg.Core.UpdateBandwidth) / 1e6,
	}

	out := make([]IncentiveResult, 0, len(rewards))
	for _, cs := range rewards {
		params.RewardPerUnit = cs
		willing := make([]econ.Supernode, 0, len(sns))
		for _, s := range sns {
			if econ.WillContribute(cs, s, 0) {
				willing = append(willing, s)
			}
		}
		r := IncentiveResult{RewardPerUnit: cs, Willing: float64(len(willing)) / float64(len(sns))}
		// The willing supernodes can support at most their contribution
		// over R players; the fog-served count is capped by that.
		supportable := params.SupportedPlayers(willing)
		served := fogServed
		if served > supportable {
			served = supportable
		}
		if saving, err := params.ProviderSaving(served, willing); err == nil {
			r.ProviderSaving = saving
		}
		out = append(out, r)
	}
	return out, nil
}

// IncentiveSeries converts incentive results into plottable series.
func IncentiveSeries(results []IncentiveResult) []metrics.Series {
	willing := metrics.Series{Label: "willing-frac"}
	saving := metrics.Series{Label: "provider-saving"}
	for _, r := range results {
		willing.Add(r.RewardPerUnit, r.Willing)
		saving.Add(r.RewardPerUnit, r.ProviderSaving)
	}
	return []metrics.Series{willing, saving}
}
