// Package workload generates the player population and churn of the
// CloudFog evaluation (§IV): 10,000 players placed in metro clusters, 10%
// of them supernode-capable; Poisson arrivals at 5 players/second; session
// lengths from the paper's daily play-time mixture; per-player friend
// counts from a power law with skew 0.5; and friend-driven game selection —
// a joining player picks the game most of its online friends are playing,
// or a uniformly random one when no friend is online.
package workload

import (
	"fmt"

	"cloudfog/internal/core"
	"cloudfog/internal/game"
	"cloudfog/internal/geo"
	"cloudfog/internal/sim"
)

// Endpoint-ID bases keep player, supernode, datacenter and edge-server IDs
// disjoint; the latency trace keys per-node randomness by ID.
const (
	PlayerIDBase     = 0
	SupernodeIDBase  = 1_000_000
	DatacenterIDBase = 2_000_000
	EdgeServerIDBase = 3_000_000

	// MaxPlayers is the largest population the bases keep disjoint: a
	// supernode is SupernodeIDBase plus the ID of the player whose machine it
	// is, so one player more and that player and a supernode are one
	// trace.NodeID — the pair measures Base, and both draw their last-mile
	// delay from the same variate.
	MaxPlayers = SupernodeIDBase - PlayerIDBase
)

// Config parameterizes population generation.
type Config struct {
	Seed              int64
	Players           int
	SupernodeFraction float64
	Placer            geo.Placer
	// Downlink is lognormal across players.
	DownlinkMedian int64
	DownlinkSigma  float64
	// Friend counts follow a power law on [1, MaxFriends] with FriendSkew.
	MaxFriends int
	FriendSkew float64
}

// DefaultConfig returns the paper's population: 10,000 metro-clustered
// players, 10% supernode-capable, 20 Mbps median downlink, friend counts
// power-law with skew 0.5.
func DefaultConfig(seed int64) Config {
	return Config{
		Seed:              seed,
		Players:           10_000,
		SupernodeFraction: 0.10,
		Placer:            geo.DefaultUSPlacer(),
		DownlinkMedian:    20_000_000,
		DownlinkSigma:     0.6,
		MaxFriends:        100,
		FriendSkew:        0.5,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.Players < 1:
		return fmt.Errorf("workload: Players %d < 1", c.Players)
	case c.Players > MaxPlayers:
		return fmt.Errorf("workload: Players %d > %d: player IDs would run into the supernode ID range", c.Players, MaxPlayers)
	case c.SupernodeFraction < 0 || c.SupernodeFraction > 1:
		return fmt.Errorf("workload: SupernodeFraction %v outside [0,1]", c.SupernodeFraction)
	case c.Placer == nil:
		return fmt.Errorf("workload: nil Placer")
	case c.DownlinkMedian <= 0:
		return fmt.Errorf("workload: non-positive DownlinkMedian %d", c.DownlinkMedian)
	case c.MaxFriends < 1:
		return fmt.Errorf("workload: MaxFriends %d < 1", c.MaxFriends)
	case c.FriendSkew < 0:
		return fmt.Errorf("workload: negative FriendSkew %v", c.FriendSkew)
	}
	return nil
}

// Population is a generated player base.
type Population struct {
	Players []*core.Player
	// Capable indexes the supernode-capable players.
	Capable []int
}

// Generate builds a deterministic population from the configuration.
func Generate(cfg Config) (*Population, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := sim.NewRand(cfg.Seed)
	placeRng := rng.Fork()
	linkRng := rng.Fork()
	friendRng := rng.Fork()
	capableRng := rng.Fork()

	pop := &Population{Players: make([]*core.Player, cfg.Players)}
	for i := range pop.Players {
		p := &core.Player{
			ID:       PlayerIDBase + int64(i),
			Pos:      cfg.Placer.Place(placeRng),
			Downlink: int64(float64(cfg.DownlinkMedian) * lognormMultiplier(linkRng, cfg.DownlinkSigma)),
		}
		if capableRng.Float64() < cfg.SupernodeFraction {
			p.SupernodeCapable = true
			pop.Capable = append(pop.Capable, i)
		}
		pop.Players[i] = p
	}
	// Friend graph: sample a degree per player, then draw that many
	// distinct random friends. Friendship is directional here; it only
	// drives game selection.
	for i, p := range pop.Players {
		k := friendRng.PowerLawInt(1, cfg.MaxFriends, cfg.FriendSkew)
		if k >= cfg.Players {
			k = cfg.Players - 1
		}
		seen := map[int]bool{i: true}
		for len(p.Friends) < k {
			j := friendRng.Intn(cfg.Players)
			if seen[j] {
				continue
			}
			seen[j] = true
			p.Friends = append(p.Friends, pop.Players[j].ID)
		}
	}
	return pop, nil
}

func lognormMultiplier(r *sim.Rand, sigma float64) float64 {
	if sigma <= 0 {
		return 1
	}
	return r.LogNormal(0, sigma)
}

// BuildSupernodes promotes n supernode-capable players' machines into
// supernodes: capacity C_j from the paper's Pareto (mean 5), uplink
// provisioned per capacity slot. It returns an error when the population
// has fewer than n capable players.
func (pop *Population) BuildSupernodes(n int, uplinkPerSlot int64, rng *sim.Rand) ([]*core.Supernode, error) {
	if n > len(pop.Capable) {
		return nil, fmt.Errorf("workload: want %d supernodes, only %d capable players", n, len(pop.Capable))
	}
	// Random selection without replacement from the capable set.
	perm := rng.Perm(len(pop.Capable))
	sns := make([]*core.Supernode, 0, n)
	for _, pi := range perm[:n] {
		p := pop.Players[pop.Capable[pi]]
		capacity := int(rng.CapacityPareto() + 0.5)
		if capacity < 1 {
			capacity = 1
		}
		sn := core.NewSupernode(
			SupernodeIDBase+p.ID,
			p.Pos,
			capacity,
			int64(capacity)*uplinkPerSlot,
		)
		sns = append(sns, sn)
	}
	return sns, nil
}

// Churn drives session dynamics on a System: players join following a
// Poisson process, play for a session drawn from the daily play-time
// mixture, leave, and later rejoin for their next session.
type Churn struct {
	Engine *sim.Engine
	System core.System
	Pop    *Population
	// ArrivalRate is the Poisson join rate in players/second (paper: 5).
	ArrivalRate float64

	rng     *sim.Rand
	offline []int // indexes into Pop.Players
	joins   uint64
	leaves  uint64
}

// NewChurn wires a churn driver. Call Start to schedule the first arrival.
func NewChurn(engine *sim.Engine, system core.System, pop *Population, rate float64, rng *sim.Rand) *Churn {
	c := &Churn{Engine: engine, System: system, Pop: pop, ArrivalRate: rate, rng: rng}
	c.offline = make([]int, len(pop.Players))
	for i := range c.offline {
		c.offline[i] = i
	}
	return c
}

// Joins and Leaves report how many session starts/ends have occurred.
func (c *Churn) Joins() uint64  { return c.joins }
func (c *Churn) Leaves() uint64 { return c.leaves }

// Start schedules the arrival process.
func (c *Churn) Start() {
	c.Engine.Schedule(c.rng.Exp(c.ArrivalRate), c.arrival)
}

func (c *Churn) arrival() {
	if len(c.offline) > 0 {
		i := c.rng.Intn(len(c.offline))
		idx := c.offline[i]
		c.offline[i] = c.offline[len(c.offline)-1]
		c.offline = c.offline[:len(c.offline)-1]
		c.join(idx)
	}
	c.Engine.Schedule(c.rng.Exp(c.ArrivalRate), c.arrival)
}

func (c *Churn) join(idx int) {
	p := c.Pop.Players[idx]
	p.Game = c.ChooseGame(p)
	c.System.Join(p)
	c.joins++
	session := c.rng.SessionDuration()
	c.Engine.Schedule(session, func() {
		c.System.Leave(p)
		c.leaves++
		c.offline = append(c.offline, idx)
	})
}

// ChooseGame implements the paper's friend-driven selection: the game with
// the largest number of online friends playing it, or a uniformly random
// game when no friend is online. Ties break toward the lowest game ID for
// determinism.
func (c *Churn) ChooseGame(p *core.Player) game.Game {
	counts := make(map[int]int)
	for _, fid := range p.Friends {
		f := c.Pop.Players[fid-PlayerIDBase]
		if f.Online && f.Game.ID != 0 {
			counts[f.Game.ID]++
		}
	}
	bestID, bestCount := 0, 0
	for id := 1; id <= len(game.Games()); id++ {
		if counts[id] > bestCount {
			bestID, bestCount = id, counts[id]
		}
	}
	if bestID == 0 {
		bestID = 1 + c.rng.Intn(len(game.Games()))
	}
	g, err := game.ByID(bestID)
	if err != nil {
		panic(err) // unreachable: IDs come from game.Games
	}
	return g
}
