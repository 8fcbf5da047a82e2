// Package experiment regenerates every figure of the CloudFog paper's
// evaluation (§IV) on the simulator substrate. Each exported function
// corresponds to one figure and returns the same series the paper plots;
// the cmd/cloudfog-sim tool and the repository benchmarks print them.
//
// Default settings follow the paper: 10,000 players (10% supernode-capable,
// 600 selected as supernodes), 5 main datacenters, 45 extra EdgeCloud
// servers, θ=0.5, λ=1, h₁=100, h₂=10, 30 fps video. Every figure joins a
// fixed population; churn enters as supernode faults, not session arrivals.
package experiment

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"cloudfog/internal/core"
	"cloudfog/internal/econ"
	"cloudfog/internal/game"
	"cloudfog/internal/geo"
	"cloudfog/internal/metrics"
	"cloudfog/internal/obs"
	"cloudfog/internal/recfmt"
	"cloudfog/internal/sim"
	"cloudfog/internal/workload"
)

// Config parameterizes the whole evaluation.
type Config struct {
	Seed int64
	// Core carries the infrastructure knobs (latency model, stream
	// sizing, assignment parameters).
	Core core.Config
	// Workload carries the population parameters.
	Workload workload.Config

	Players            int
	Supernodes         int
	Datacenters        int
	EdgeServers        int
	EdgeServerCapacity int
	EdgeServerEgress   int64

	// SweepWorkers bounds the worker pool the figure sweeps run their
	// independent points on: 0 (the default) means one worker per
	// available CPU, 1 forces the serial path. Series values are
	// identical at any setting; see sweepPoints.
	SweepWorkers int

	// Shards is how many workers share a single run's per-node QoE
	// simulations (qoe.EachNode). 0 or 1 runs them on the calling
	// goroutine; any value produces byte-identical figure output (see
	// groupRun and ScaleRun).
	Shards int

	// Obs, when non-nil, aggregates observability counters from every
	// system and QoE run a figure performs: segment lifecycle and delivery
	// latency from the per-node simulations, assignment outcomes from each
	// minted fog, and engine event totals. The registry is shared across
	// sweep workers (all updates are atomic and commutative), so figure
	// series stay bit-identical at any worker count.
	Obs *obs.Registry
}

// Default returns the paper-default configuration.
func Default(seed int64) Config {
	coreCfg := core.DefaultConfig(seed)
	coreCfg.DCEgress = 2_500_000_000 // per-datacenter video egress
	wl := workload.DefaultConfig(seed + 1)
	return Config{
		Seed:               seed,
		Core:               coreCfg,
		Workload:           wl,
		Players:            10_000,
		Supernodes:         600,
		Datacenters:        5,
		EdgeServers:        45,
		EdgeServerCapacity: 15,
		EdgeServerEgress:   100_000_000,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Players < 1 {
		return fmt.Errorf("experiment: Players %d < 1", c.Players)
	}
	if c.Datacenters < 1 {
		return fmt.Errorf("experiment: Datacenters %d < 1", c.Datacenters)
	}
	if c.Supernodes < 1 {
		return fmt.Errorf("experiment: Supernodes %d < 1", c.Supernodes)
	}
	if c.Shards < 0 {
		return fmt.Errorf("experiment: Shards %d < 0", c.Shards)
	}
	if c.SweepWorkers < 0 {
		return fmt.Errorf("experiment: SweepWorkers %d < 0", c.SweepWorkers)
	}
	if err := c.Core.Validate(); err != nil {
		return err
	}
	// The population NewWorld generates is Workload at this Config's size.
	wl := c.Workload
	wl.Players = c.Players
	return wl.Validate()
}

// World holds the generated population and infrastructure specifications.
// Infrastructure entities carry runtime state (attached players), so World
// stores immutable specs and mints fresh instances per system.
type World struct {
	Cfg Config
	Pop *workload.Population

	dcPts  []geo.Point
	srvPts []geo.Point
	snSpec []snSpec
	// snByID indexes snSpec in ID order, which BuildSupernodes' permutation
	// order is not, for the respawner's binary search.
	snByID []int32

	runs nodeRuns
}

type snSpec struct {
	id       int64
	pos      geo.Point
	capacity int
	uplink   int64
}

// NewWorld generates the population and infrastructure placements.
func NewWorld(cfg Config) (*World, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	wl := cfg.Workload
	wl.Players = cfg.Players
	pop, err := workload.Generate(wl)
	if err != nil {
		return nil, err
	}
	w := &World{Cfg: cfg, Pop: pop}

	rng := sim.NewRand(cfg.Seed + 100)
	w.dcPts = geo.SpreadPoints(cfg.Core.Region, max(cfg.Datacenters, 25), rng.Fork())
	w.srvPts = geo.SpreadPoints(cfg.Core.Region, cfg.EdgeServers, rng.Fork())

	sns, err := pop.BuildSupernodes(cfg.Supernodes, cfg.Core.UplinkPerSlot, rng.Fork())
	if err != nil {
		return nil, err
	}
	w.snSpec = make([]snSpec, len(sns))
	w.snByID = make([]int32, len(sns))
	for i, sn := range sns {
		w.snSpec[i] = snSpec{id: sn.ID, pos: sn.Pos, capacity: sn.Capacity, uplink: sn.Uplink}
		w.snByID[i] = int32(i)
	}
	slices.SortFunc(w.snByID, func(a, b int32) int { return cmp.Compare(w.snSpec[a].id, w.snSpec[b].id) })
	return w, nil
}

// Fingerprint digests the generated world — every player's identity,
// position, downlink, and capability flag, the supernode specs, and the
// infrastructure placements — into one CRC-protected value. The flight
// recorder stamps it into each recording and checks it before replaying:
// a replay that reconstructs a different world (changed generation code, a
// different workload default) fails immediately instead of producing a
// confusing figure-byte divergence ten minutes in.
func (w *World) Fingerprint() uint32 {
	var b []byte
	b = recfmt.AppendVarint(b, w.Cfg.Seed)
	b = recfmt.AppendUvarint(b, uint64(len(w.Pop.Players)))
	for i := range w.Pop.Players {
		p := &w.Pop.Players[i]
		b = recfmt.AppendVarint(b, int64(p.ID))
		b = recfmt.AppendFloat64(b, p.Pos.X)
		b = recfmt.AppendFloat64(b, p.Pos.Y)
		b = recfmt.AppendVarint(b, int64(p.Downlink))
		cap := uint64(0)
		if p.SupernodeCapable {
			cap = 1
		}
		b = recfmt.AppendUvarint(b, cap)
	}
	b = recfmt.AppendUvarint(b, uint64(len(w.snSpec)))
	for _, sp := range w.snSpec {
		b = recfmt.AppendVarint(b, sp.id)
		b = recfmt.AppendFloat64(b, sp.pos.X)
		b = recfmt.AppendFloat64(b, sp.pos.Y)
		b = recfmt.AppendVarint(b, int64(sp.capacity))
		b = recfmt.AppendVarint(b, sp.uplink)
	}
	for _, pts := range [][]geo.Point{w.dcPts, w.srvPts} {
		b = recfmt.AppendUvarint(b, uint64(len(pts)))
		for _, pt := range pts {
			b = recfmt.AppendFloat64(b, pt.X)
			b = recfmt.AppendFloat64(b, pt.Y)
		}
	}
	return recfmt.Checksum(b)
}

// dcID and edgeID mint the node ID of the i-th datacenter site and edge server
// from the bases this world's population puts them at.
func (w *World) dcID(i int) int64   { return workload.DatacenterIDBase(len(w.Pop.Players)) + int64(i) }
func (w *World) edgeID(i int) int64 { return workload.EdgeServerIDBase(len(w.Pop.Players)) + int64(i) }

// Datacenters mints n fresh datacenter instances.
func (w *World) Datacenters(n int) []*core.Datacenter {
	if n > len(w.dcPts) {
		n = len(w.dcPts)
	}
	dcs := make([]*core.Datacenter, n)
	for i := 0; i < n; i++ {
		dcs[i] = core.NewDatacenter(w.dcID(i), w.dcPts[i], w.Cfg.Core.DCEgress)
	}
	return dcs
}

// EdgeServers mints fresh edge-server instances.
func (w *World) EdgeServers() []*core.Datacenter {
	servers := make([]*core.Datacenter, len(w.srvPts))
	for i, pt := range w.srvPts {
		servers[i] = core.NewEdgeServer(w.edgeID(i), pt,
			w.Cfg.EdgeServerEgress, w.Cfg.EdgeServerCapacity)
	}
	return servers
}

// SupernodeSet mints n fresh supernode instances (the first n of the
// selected set, so sweeps nest).
func (w *World) SupernodeSet(n int) []*core.Supernode {
	if n > len(w.snSpec) {
		n = len(w.snSpec)
	}
	sns := make([]*core.Supernode, n)
	for i := 0; i < n; i++ {
		sp := w.snSpec[i]
		sns[i] = core.NewSupernode(sp.id, sp.pos, sp.capacity, sp.uplink)
	}
	return sns
}

// NewFog builds a CloudFog system with nDCs datacenters and nSNs supernodes.
func (w *World) NewFog(nDCs, nSNs int) (*core.Fog, error) {
	cc := w.Cfg.Core
	if w.Cfg.Obs != nil {
		cc.Obs = obs.AssignStatsIn(w.Cfg.Obs)
	}
	return core.BuildFog(cc, w.Datacenters(nDCs), w.SupernodeSet(nSNs),
		sim.NewRand(w.Cfg.Seed+200))
}

// NewCloud builds the Cloud baseline with nDCs datacenters: a fog with no
// supernodes, so every join takes the protocol's cloud fallback (§III-A3)
// and streams from the datacenter nearest its geolocated estimate.
func (w *World) NewCloud(nDCs int) (*core.Fog, error) {
	return core.BuildFog(w.Cfg.Core, w.Datacenters(nDCs), nil, sim.NewRand(w.Cfg.Seed+201))
}

// NewEdgeCloud builds the EdgeCloud baseline (Choy et al., 2012; paper §IV)
// with nDCs datacenters and the configured edge servers: deployed servers
// near users that take over all tasks — state, rendering and streaming — for
// the players they serve. It is a fog with no supernodes whose datacenter
// list leads with the edge servers, so every join attaches to the nearest of
// them with room, and the first in the list wins a tie. Built on the same
// substrates as CloudFog (latency trace, flow model, entities), the
// comparison isolates the architecture.
func (w *World) NewEdgeCloud(nDCs int) (*core.Fog, error) {
	return core.BuildFog(w.Cfg.Core, append(w.EdgeServers(), w.Datacenters(nDCs)...), nil,
		sim.NewRand(w.Cfg.Seed+202))
}

// JoinAll assigns every one of the first n players a game (uniformly at
// random, deterministic in the world seed) and joins them to the system in
// a deterministic shuffled order, returning the joined players.
func (w *World) JoinAll(sys *core.Fog, n int) []*core.Player {
	return w.joinAll(sys, n, 0)
}

// JoinAllGame is JoinAll with every player assigned the same game — the
// coverage sweeps' semantics, where each curve is a world whose games share
// one network latency requirement. g must be a row of game's table: a player
// holds its game as that row's ID.
func (w *World) JoinAllGame(sys *core.Fog, n int, g game.Game) []*core.Player {
	if row, err := game.ByID(g.ID); err != nil || row != g {
		panic(fmt.Sprintf("experiment: JoinAllGame of %+v, which is not a row of game's table", g))
	}
	return w.joinAll(sys, n, uint8(g.ID))
}

// joinAll joins the first n players of a shuffled order, each on the game
// fixed names, or on one drawn at random when fixed is 0.
func (w *World) joinAll(sys *core.Fog, n int, fixed uint8) []*core.Player {
	if n > len(w.Pop.Players) {
		n = len(w.Pop.Players)
	}
	rng := sim.NewRand(w.Cfg.Seed + 300)
	players := make([]*core.Player, n)
	order := rng.Perm(len(w.Pop.Players))[:n]
	for i, idx := range order {
		p := &w.Pop.Players[idx]
		if fixed != 0 {
			p.GameID = fixed
		} else {
			p.GameID = uint8(rng.Intn(game.Count) + 1)
		}
		players[i] = p
	}
	for _, p := range players {
		sys.Join(p)
	}
	return players
}

// LeaveAll detaches the players (restoring the world for the next system).
func (w *World) LeaveAll(sys *core.Fog, players []*core.Player) {
	for _, p := range players {
		sys.Leave(p)
	}
}

// gameForRequirement maps a swept network latency requirement onto the
// matching game (the Figure 2 ladder rows are exactly the swept values).
func gameForRequirement(req time.Duration) (game.Game, error) {
	for _, g := range game.Games() {
		if g.NetworkBudget() == req {
			return g, nil
		}
	}
	return game.Game{}, fmt.Errorf("experiment: no game with network requirement %v", req)
}

// CoverageVsDatacenters reproduces Figure 5(a): the fraction of players
// whose network latency is within the requirement, as the number of
// datacenters grows, under the pure Cloud model. Each requirement curve is
// a run where every player plays the game with that requirement, matching
// the paper's "different network latency requirements of games".
func CoverageVsDatacenters(w *World, dcCounts []int, reqs []time.Duration) ([]metrics.Series, error) {
	return coverageSweep(w, dcCounts, reqs, func(pw *World, n int) (*core.Fog, error) {
		return pw.NewCloud(n)
	})
}

// coverageSweep runs one coverage figure: every (count, requirement) pair
// is an independent point — a fresh system, a full join of the population
// on the requirement's game, a coverage measurement — so the pairs run on
// the sweep worker pool, each writing its preallocated series cell.
func coverageSweep(w *World, counts []int, reqs []time.Duration,
	build func(pw *World, n int) (*core.Fog, error)) ([]metrics.Series, error) {
	games := make([]game.Game, len(reqs))
	series := make([]metrics.Series, len(reqs))
	for i, req := range reqs {
		g, err := gameForRequirement(req)
		if err != nil {
			return nil, err
		}
		games[i] = g
		series[i].Label = fmt.Sprintf("req=%dms", req.Milliseconds())
		series[i].Points = make([]metrics.Point, len(counts))
	}
	err := w.sweepPoints(len(counts)*len(reqs), func(pw *World, pt int) error {
		ci, ri := pt/len(reqs), pt%len(reqs)
		n := counts[ci]
		sys, err := build(pw, n)
		if err != nil {
			return err
		}
		players := pw.JoinAllGame(sys, pw.Cfg.Players, games[ri])
		var cov metrics.Coverage
		for _, p := range players {
			cov.Observe(sys.NetworkLatency(p), reqs[ri])
		}
		series[ri].Points[ci] = metrics.Point{X: float64(n), Y: cov.Fraction()}
		pw.LeaveAll(sys, players)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return series, nil
}

// CoverageVsSupernodes reproduces Figure 5(b): coverage as supernodes are
// added to the default datacenter deployment.
func CoverageVsSupernodes(w *World, snCounts []int, reqs []time.Duration) ([]metrics.Series, error) {
	return coverageSweep(w, snCounts, reqs, func(pw *World, n int) (*core.Fog, error) {
		return pw.NewFog(pw.Cfg.Datacenters, n)
	})
}

// systems are the paper's four systems in the order its figures plot them:
// the label, the builder on a point's world, and whether the two CloudFog
// strategies run, which only CloudFog/A's do.
var systems = []struct {
	label      string
	build      func(pw *World) (*core.Fog, error)
	strategies bool
}{
	{"Cloud", func(pw *World) (*core.Fog, error) { return pw.NewCloud(pw.Cfg.Datacenters) }, false},
	{"EdgeCloud", func(pw *World) (*core.Fog, error) { return pw.NewEdgeCloud(pw.Cfg.Datacenters) }, false},
	{"CloudFog/B", func(pw *World) (*core.Fog, error) { return pw.NewFog(pw.Cfg.Datacenters, pw.Cfg.Supernodes) }, false},
	{"CloudFog/A", func(pw *World) (*core.Fog, error) { return pw.NewFog(pw.Cfg.Datacenters, pw.Cfg.Supernodes) }, true},
}

// BandwidthVsPlayers reproduces Figure 7(a): the cloud's video egress as
// the number of concurrent players grows, for Cloud, EdgeCloud and
// CloudFog/B. Values are in Mbit/s.
func BandwidthVsPlayers(w *World, playerCounts []int) ([]metrics.Series, error) {
	builds := systems[:3]
	series := make([]metrics.Series, len(builds))
	for i, b := range builds {
		series[i].Label = b.label
		series[i].Points = make([]metrics.Point, len(playerCounts))
	}
	err := w.sweepPoints(len(playerCounts)*len(builds), func(pw *World, pt int) error {
		ci, si := pt/len(builds), pt%len(builds)
		n := playerCounts[ci]
		sys, err := builds[si].build(pw)
		if err != nil {
			return err
		}
		players := pw.JoinAll(sys, n)
		series[si].Points[ci] = metrics.Point{X: float64(n), Y: float64(sys.CloudBandwidth()) / 1e6}
		pw.LeaveAll(sys, players)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return series, nil
}

// The market constants of figecon. The paper leaves both abstract; prices
// are per Mbit/s of contribution or saving.
const (
	// revenuePerMbit is c_c, the provider's value of a saved Mbit/s.
	revenuePerMbit = 1.0
	// costPerMachine is cost_j, every contributor's running cost.
	costPerMachine = 0.9
)

// fogEconomics prices the fog that ran. It joins the first n players to the
// Cloud baseline and notes who is within their game's network budget, then
// joins them to CloudFog/B and describes every supernode that carries a
// player by what it measured, in bits/s: c_j is its uplink, u_j its load over
// its slots, Streamed the wire rate of its members and NewlyCovered that of
// the members the cloud left outside their budget and the fog brings within
// it (what Figure 5(b) counts). It leaves the players as it found them.
func fogEconomics(w *World, n int) ([]econ.Supernode, error) {
	cloud, err := w.NewCloud(w.Cfg.Datacenters)
	if err != nil {
		return nil, err
	}
	players := w.JoinAll(cloud, n)
	covered := make([]bool, len(players))
	for i, p := range players {
		covered[i] = cloud.NetworkLatency(p) <= p.Game().NetworkBudget()
	}
	w.LeaveAll(cloud, players)

	fog, err := w.NewFog(w.Cfg.Datacenters, w.Cfg.Supernodes)
	if err != nil {
		return nil, err
	}
	players = w.JoinAll(fog, n) // the same players, in the same order, on the same games
	idx := make(map[*core.Supernode]int)
	var sns []econ.Supernode
	for _, sn := range fog.Supernodes() {
		if sn.Load() > 0 {
			idx[sn] = len(sns)
			sns = append(sns, econ.Supernode{
				Capacity:    float64(sn.Uplink),
				Utilization: float64(sn.Load()) / float64(sn.Capacity),
				Cost:        costPerMachine,
			})
		}
	}
	for i, p := range players {
		j, ok := idx[p.Attached.SN]
		if !ok {
			continue
		}
		rate := float64(w.Cfg.Core.WireRate(p.Game().Quality().Bitrate))
		sns[j].Streamed += rate
		if !covered[i] && fog.NetworkLatency(p) <= p.Game().NetworkBudget() {
			sns[j].NewlyCovered += rate
		}
	}
	w.LeaveAll(fog, players)
	return sns, nil
}

// EconomicsVsReward prices CloudFog/B on the world's whole population (paper
// §III-A, Eqs. 1-6) at each reward rate c_s, per Mbit/s, in four series: the
// owners of loaded supernodes that Eq. 1 makes willing to contribute, their
// contribution B_s (Mbit/s), the provider saving C_g of deploying exactly
// those (Eq. 3), and how many of them Eq. 6 calls worth deploying.
func EconomicsVsReward(w *World, rewards []float64) ([]metrics.Series, error) {
	sns, err := fogEconomics(w, w.Cfg.Players)
	if err != nil {
		return nil, err
	}
	series := []metrics.Series{{Label: "willing"}, {Label: "B_s(Mbit/s)"}, {Label: "C_g"}, {Label: "Eq.6 worth"}}
	for _, cs := range rewards {
		// The fog measures bits/s; a price per Mbit/s is one per 1e6 of them.
		p := econ.Params{
			RewardPerUnit:  cs / 1e6,
			RevenuePerUnit: revenuePerMbit / 1e6,
			UpdateRate:     float64(w.Cfg.Core.UpdateBandwidth),
		}
		var willing []econ.Supernode
		worth := 0
		for _, s := range sns {
			if econ.WillContribute(p.RewardPerUnit, s, 0) {
				willing = append(willing, s)
				if p.WorthDeploying(s) {
					worth++
				}
			}
		}
		saving, err := p.ProviderSaving(willing)
		if err != nil {
			return nil, err
		}
		series[0].Add(cs, float64(len(willing)))
		series[1].Add(cs, econ.TotalContribution(willing)/1e6)
		series[2].Add(cs, saving)
		series[3].Add(cs, float64(worth))
	}
	return series, nil
}

// LatencyResult is one system's average response network latency (Fig. 8).
type LatencyResult struct {
	System string
	Mean   time.Duration
	Median time.Duration
	P90    time.Duration
}

// ResponseLatency reproduces Figure 8(a): the average response latency per
// player under Cloud, EdgeCloud, CloudFog/B and CloudFog/A at the default
// scale. CloudFog/A uses the flow-level adaptation proxy (encoders step
// down until the segment fits the game's budget).
func ResponseLatency(w *World) ([]LatencyResult, error) {
	out := make([]LatencyResult, len(systems))
	err := w.sweepPoints(len(systems), func(pw *World, i int) error {
		sys, err := systems[i].build(pw)
		if err != nil {
			return err
		}
		players := pw.JoinAll(sys, pw.Cfg.Players)
		var ds metrics.DurationSample
		for _, p := range players {
			var l time.Duration
			if systems[i].strategies {
				l = core.AdaptedFlowLatency(pw.Cfg.Core, p)
			} else {
				l = sys.NetworkLatency(p)
			}
			ds.Add(l + game.PlayoutDelay)
		}
		out[i] = LatencyResult{
			System: systems[i].label,
			Mean:   ds.Mean(),
			Median: ds.Median(),
			P90:    ds.Percentile(90),
		}
		pw.LeaveAll(sys, players)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
